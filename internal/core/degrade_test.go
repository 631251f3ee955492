package core

import (
	"testing"

	"vsnoop/internal/mem"
)

func TestDegradationDisabledByDefault(t *testing.T) {
	_, f, _, _ := testRig(t, 16, Config{Policy: PolicyBase})
	place(f, 1, 0, 1, 2, 3)
	f.NoteEscalation(1, 2)
	f.NoteUnderflow(1)
	if f.SuspicionLevel(1) != 0 {
		t.Fatal("suspicion recorded with degradation disabled")
	}
	if got := len(route(f, 1, mem.PagePrivate, 0)); got != 3 {
		t.Fatalf("route size %d, want plain map (3)", got)
	}
	if f.FallbackBroadcast() != 0 || f.FallbackCounterAug() != 0 || f.Underflows() != 0 {
		t.Fatal("degradation counters moved while disabled")
	}
}

func TestLevel1UsesCounterAugmentedMap(t *testing.T) {
	_, f, caches, _ := testRig(t, 16, Config{Policy: PolicyBase})
	f.DegradationEnabled = true
	place(f, 1, 0, 1, 2, 3)
	// Core 7 is NOT in the map but still caches VM 1's data — the
	// counter-augmented set must include it.
	caches[7].Insert(mem.BlockAddr(64), 1)
	f.NoteEscalation(1, 1)
	if f.SuspicionLevel(1) != 1 {
		t.Fatalf("suspicion level %d, want 1", f.SuspicionLevel(1))
	}
	dsts := route(f, 1, mem.PagePrivate, 0)
	if got := len(dsts); got != 4 { // cores 1,2,3 + resident core 7
		t.Fatalf("counter-augmented route size %d, want 4 (%v)", got, dsts)
	}
	if f.FallbackCounterAug() == 0 {
		t.Fatal("FallbackCounterAug not counted")
	}
}

func TestLevel2BroadcastsAndRebuilds(t *testing.T) {
	_, f, caches, _ := testRig(t, 16, Config{Policy: PolicyBase})
	f.DegradationEnabled = true
	place(f, 1, 0, 1, 2, 3)
	caches[7].Insert(mem.BlockAddr(64), 1)
	// A corrupted map register leaves a single stale entry...
	f.CorruptMap(1, 5)
	if got := f.MapCores(1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("corrupted map = %v, want [5]", got)
	}
	// ...then persistent-request escalation pushes to level 2: broadcast
	// and rebuild from running + resident state.
	f.NoteEscalation(1, 2)
	if f.SuspicionLevel(1) != 2 {
		t.Fatalf("suspicion level %d, want 2", f.SuspicionLevel(1))
	}
	if got := len(route(f, 1, mem.PagePrivate, 0)); got != 15 {
		t.Fatalf("level-2 route size %d, want broadcast (15)", got)
	}
	if f.FallbackBroadcast() == 0 || f.MapRebuilds() == 0 {
		t.Fatal("broadcast fallback / rebuild not counted")
	}
	// The rebuilt map holds the running cores plus resident core 7.
	want := []int{0, 1, 2, 3, 7}
	got := f.MapCores(1)
	if len(got) != len(want) {
		t.Fatalf("rebuilt map = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rebuilt map = %v, want %v", got, want)
		}
	}
}

func TestUnderflowForcesLevel2(t *testing.T) {
	_, f, _, _ := testRig(t, 16, Config{Policy: PolicyCounter})
	f.DegradationEnabled = true
	place(f, 2, 4, 5)
	f.NoteUnderflow(2)
	if f.SuspicionLevel(2) != 2 {
		t.Fatalf("suspicion level %d after underflow, want 2", f.SuspicionLevel(2))
	}
	if f.Underflows() != 1 {
		t.Fatalf("Underflows = %d, want 1", f.Underflows())
	}
}

func TestSuspicionDecays(t *testing.T) {
	eng, f, _, _ := testRig(t, 16, Config{Policy: PolicyBase})
	f.DegradationEnabled = true
	place(f, 1, 0, 1, 2, 3)
	f.NoteEscalation(1, 1)
	if f.SuspicionLevel(1) != 1 {
		t.Fatal("suspicion not recorded")
	}
	// Advance past the decay window: routing reverts to the plain map.
	eng.ScheduleFn(suspectWindow+1, func(interface{}, uint64) {}, nil, 0)
	eng.Run()
	if f.SuspicionLevel(1) != 0 {
		t.Fatalf("suspicion level %d after window, want 0", f.SuspicionLevel(1))
	}
	if got := len(route(f, 1, mem.PagePrivate, 0)); got != 3 {
		t.Fatalf("route size %d after decay, want 3", got)
	}
}

func TestHigherLevelWins(t *testing.T) {
	_, f, _, _ := testRig(t, 16, Config{Policy: PolicyBase})
	f.DegradationEnabled = true
	place(f, 1, 0, 1)
	f.NoteEscalation(1, 2)
	f.NoteEscalation(1, 1) // later, weaker signal must not downgrade
	if f.SuspicionLevel(1) != 2 {
		t.Fatalf("suspicion level %d, want 2 (no downgrade)", f.SuspicionLevel(1))
	}
}

func TestCorruptMapClear(t *testing.T) {
	_, f, _, _ := testRig(t, 16, Config{Policy: PolicyBase})
	place(f, 3, 8, 9)
	before := f.MapSyncs
	f.CorruptMap(3, -1)
	if f.MapSize(3) != 0 {
		t.Fatalf("map size %d after clearing corruption, want 0", f.MapSize(3))
	}
	if f.MapSyncs != before {
		t.Fatal("CorruptMap counted as a map sync; soft errors are invisible to hardware")
	}
}
