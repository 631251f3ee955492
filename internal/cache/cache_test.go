package cache

import (
	"testing"
	"testing/quick"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
)

func small() *Cache {
	return New(Config{Name: "t", SizeBytes: 4 * 1024, Ways: 4, BlockBytes: 64, HitLatency: 2})
}

func TestConfigValidate(t *testing.T) {
	bad := Config{Name: "b", SizeBytes: 3000, Ways: 4, BlockBytes: 64}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	good := Config{Name: "g", SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertLookup(t *testing.T) {
	c := small()
	b, _, ev := c.Insert(100, 1)
	if ev {
		t.Fatal("eviction from empty cache")
	}
	if b.Addr != 100 || b.VM != 1 || b.Tokens != 0 {
		t.Fatalf("inserted block wrong: %+v", b)
	}
	if got := c.Lookup(100); got != b {
		t.Fatal("lookup after insert failed")
	}
	if c.Lookup(101) != nil {
		t.Fatal("lookup of absent block succeeded")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 16 sets, 4 ways
	nSets := uint64(c.NumSets())
	// Fill one set with 4 blocks mapping to set 0.
	addrs := []mem.BlockAddr{0, mem.BlockAddr(nSets), mem.BlockAddr(2 * nSets), mem.BlockAddr(3 * nSets)}
	for _, a := range addrs {
		c.Insert(a, 1)
	}
	// Touch the first so the second becomes LRU.
	c.Touch(c.Lookup(addrs[0]))
	_, victim, ev := c.Insert(mem.BlockAddr(4*nSets), 1)
	if !ev {
		t.Fatal("expected eviction from full set")
	}
	if victim.Addr != addrs[1] {
		t.Fatalf("evicted %d, want LRU %d", victim.Addr, addrs[1])
	}
	if c.Lookup(addrs[1]) != nil {
		t.Fatal("victim still present")
	}
	if c.Lookup(addrs[0]) == nil {
		t.Fatal("recently touched block evicted")
	}
}

func TestEvictInfoCarriesTokenState(t *testing.T) {
	c := small()
	nSets := uint64(c.NumSets())
	b, _, _ := c.Insert(0, 3)
	b.Tokens = 5
	b.Owner = true
	b.Dirty = true
	for i := uint64(1); i <= 3; i++ {
		c.Insert(mem.BlockAddr(i*nSets), 3)
	}
	_, victim, ev := c.Insert(mem.BlockAddr(4*nSets), 3)
	if !ev {
		t.Fatal("no eviction")
	}
	if victim.Tokens != 5 || !victim.Owner || !victim.Dirty || victim.VM != 3 {
		t.Fatalf("victim state lost: %+v", victim)
	}
}

func TestResidenceCounters(t *testing.T) {
	c := small()
	c.Insert(1, 1)
	c.Insert(2, 1)
	c.Insert(3, 2)
	if c.Resident(1) != 2 || c.Resident(2) != 1 {
		t.Fatalf("counters: vm1=%d vm2=%d", c.Resident(1), c.Resident(2))
	}
	c.Invalidate(c.Lookup(1))
	if c.Resident(1) != 1 {
		t.Fatalf("counter after invalidate = %d", c.Resident(1))
	}
	c.Invalidate(c.Lookup(2))
	if c.Resident(1) != 0 {
		t.Fatalf("counter not zero: %d", c.Resident(1))
	}
}

func TestOnResidenceZeroFires(t *testing.T) {
	c := small()
	var fired []mem.VMID
	c.OnResidenceZero = func(vm mem.VMID) { fired = append(fired, vm) }
	c.Insert(1, 7)
	c.Insert(2, 7)
	c.Invalidate(c.Lookup(1))
	if len(fired) != 0 {
		t.Fatal("fired before counter reached zero")
	}
	c.Invalidate(c.Lookup(2))
	if len(fired) != 1 || fired[0] != 7 {
		t.Fatalf("fired = %v, want [7]", fired)
	}
}

func TestOnResidenceBelowThreshold(t *testing.T) {
	c := small()
	c.Threshold = 2
	var events []int
	c.OnResidenceBelow = func(vm mem.VMID, n int) { events = append(events, n) }
	c.Insert(1, 9)
	c.Insert(2, 9)
	c.Insert(3, 9)
	c.Invalidate(c.Lookup(1)) // 2: not below threshold 2
	c.Invalidate(c.Lookup(2)) // 1: below
	c.Invalidate(c.Lookup(3)) // 0: below
	if len(events) != 2 || events[0] != 1 || events[1] != 0 {
		t.Fatalf("threshold events = %v, want [1 0]", events)
	}
}

func TestStateDerivation(t *testing.T) {
	const T = 17
	cases := []struct {
		b    Block
		want State
	}{
		{Block{}, Invalid},
		{Block{Addr: 7, Tokens: 0}, Invalid},
		{Block{Tokens: 1}, Shared},
		{Block{Tokens: 3, Owner: true}, Owned},
		{Block{Tokens: 3, Owner: true, Dirty: true}, Owned},
		{Block{Tokens: T, Owner: true}, Exclusive},
		{Block{Tokens: T, Owner: true, Dirty: true}, Modified},
	}
	for i, tc := range cases {
		if got := StateOf(&tc.b, T); got != tc.want {
			t.Errorf("case %d: state = %v, want %v", i, got, tc.want)
		}
	}
}

func TestFlushPage(t *testing.T) {
	c := New(Config{Name: "big", SizeBytes: 64 * 1024, Ways: 8, BlockBytes: 64})
	p := mem.HostPage(5)
	for i := 0; i < mem.BlocksPerPage; i++ {
		c.Insert(mem.BlockInPage(p, i), 1)
	}
	c.Insert(mem.BlockInPage(6, 0), 1) // different page
	out := c.FlushPage(p)
	if len(out) != mem.BlocksPerPage {
		t.Fatalf("flushed %d blocks, want %d", len(out), mem.BlocksPerPage)
	}
	if c.Lookup(mem.BlockInPage(6, 0)) == nil {
		t.Fatal("flush removed block of another page")
	}
	if c.Resident(1) != 1 {
		t.Fatalf("residence after flush = %d, want 1", c.Resident(1))
	}
}

func TestFlushVM(t *testing.T) {
	c := small()
	c.Insert(1, 1)
	c.Insert(2, 2)
	c.Insert(3, 1)
	out := c.FlushVM(1)
	if len(out) != 2 {
		t.Fatalf("flushed %d, want 2", len(out))
	}
	if c.Resident(1) != 0 || c.Resident(2) != 1 {
		t.Fatal("flushVM residence wrong")
	}
	if c.Lookup(2) == nil {
		t.Fatal("flushVM removed another VM's block")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := small()
	c.Insert(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(1, 1)
}

// Property: the residence counter always equals the exact number of valid
// blocks per VM, under random insert/invalidate/flush sequences.
func TestResidenceCounterExactProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, opsRaw uint16) bool {
		r := sim.NewRand(seed)
		c := small()
		ops := int(opsRaw%500) + 50
		next := mem.BlockAddr(0)
		for i := 0; i < ops; i++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				vm := mem.VMID(r.Intn(4))
				if c.Lookup(next) == nil {
					c.Insert(next, vm)
				}
				next = mem.BlockAddr(r.Intn(512))
			case 6, 7:
				a := mem.BlockAddr(r.Intn(512))
				if b := c.Lookup(a); b != nil {
					c.Invalidate(b)
				}
			case 8:
				c.FlushVM(mem.VMID(r.Intn(4)))
			case 9:
				c.FlushPage(mem.HostPage(r.Intn(8)))
			}
		}
		counts := make(map[mem.VMID]int)
		c.ForEachValid(func(b *Block) { counts[b.VM]++ })
		for vm := mem.VMID(0); vm < 4; vm++ {
			if c.Resident(vm) != counts[vm] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: a set never holds two valid blocks with the same address, and
// never more blocks than ways.
func TestSetInvariantProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := sim.NewRand(seed)
		c := small()
		for i := 0; i < 1000; i++ {
			a := mem.BlockAddr(r.Intn(256))
			if c.Lookup(a) == nil {
				c.Insert(a, mem.VMID(r.Intn(3)))
			} else if r.Bool(0.3) {
				c.Invalidate(c.Lookup(a))
			}
		}
		seen := make(map[mem.BlockAddr]bool)
		dup := false
		c.ForEachValid(func(b *Block) {
			if seen[b.Addr] {
				dup = true
			}
			seen[b.Addr] = true
		})
		return !dup && c.CountValid() <= c.NumSets()*4
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}
