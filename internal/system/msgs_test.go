package system

import (
	"testing"

	"vsnoop/internal/core"
	"vsnoop/internal/fault"
)

// heldMsgs sums, over every token controller of m, the message slots that
// are not back on their slab's free list.
func heldMsgs(m *Machine) int {
	held := 0
	for _, cn := range m.cores {
		if cn.ctrl != nil {
			held += cn.ctrl.HeldMsgs()
		}
	}
	for _, mc := range m.mcs {
		held += mc.HeldMsgs()
	}
	return held
}

// TestMsgSlotsAllReturned is the whole-machine leak check of the message
// hold protocol (token.Msg.Sent, Release): after a full drain, every slot
// carved from every controller's slab is back on its free list. The cases
// are the benchmark's pinned, storm and content machines, which park
// snoops, and a fault plan that drops, duplicates, bounces and delays
// messages and escalates to persistent requests.
func TestMsgSlotsAllReturned(t *testing.T) {
	base := func(app string) Config {
		cfg := DefaultConfig()
		cfg.Workloads = []string{app}
		cfg.RefsPerVCPU = 1500
		cfg.WarmupRefs = 500
		cfg.NoHypervisor = true
		return cfg
	}
	pinned := base("fft")
	storm := base("fft")
	storm.Filter.Policy = core.PolicyCounter
	storm.MigrationPeriodMs = 0.1
	content := base("specjbb")
	content.ContentSharing = true
	content.Filter.Content = core.ContentFriendVM
	content.Filter.Policy = core.PolicyCounter
	faulted := base("fft")
	faulted.Filter.Policy = core.PolicyCounter
	faulted.Fault = &fault.Plan{Seed: 5, DropPct: 5, DupPct: 3, DelayPct: 3, DelayMax: 200}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"pinned", pinned}, {"storm", storm}, {"content", content}, {"faulted", faulted}} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			m, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.RunChecked()
			if err != nil {
				t.Fatal(err)
			}
			if held := heldMsgs(m); held != 0 {
				t.Fatalf("%d message slots still held after the drain", held)
			}
			switch c.name {
			case "faulted":
				if st.FaultsDropped == 0 || st.FaultsDuplicated == 0 || st.FaultsBounced == 0 ||
					st.FaultsDelayed == 0 || st.Persistent == 0 {
					t.Fatalf("faults: %d dropped, %d duplicated, %d bounced, %d delayed, %d persistent; want all > 0",
						st.FaultsDropped, st.FaultsDuplicated, st.FaultsBounced, st.FaultsDelayed, st.Persistent)
				}
			default:
				if st.Sync.ParkedEvents == 0 {
					t.Fatal("no snoop was parked")
				}
			}
		})
	}
}
