package cache

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
)

// TestHoldersMatchTags drives random Inserts (evicting), Invalidates and
// FlushVMs on caches that share one Holders bitset, and after every
// operation requires Holds to agree with the tag array for every block
// touched so far, in every cache. The block pool straddles chunk
// boundaries, so materialized and untouched chunks are both exercised,
// and a cache with no shared bitset answers from its tags.
func TestHoldersMatchTags(t *testing.T) {
	const members = 3
	h := NewHolders(members)
	caches := make([]*Cache, members+1)
	for i := range caches {
		caches[i] = New(Config{Name: "t", SizeBytes: 1024, Ways: 2, BlockBytes: 64})
		if i < members {
			caches[i].ShareHolders(h, i)
		}
	}
	perChunk := mem.BlockAddr(holderChunkWords * 64 >> h.shift)
	var pool []mem.BlockAddr
	for _, base := range []mem.BlockAddr{0, perChunk - 20, 3*perChunk + 100} {
		for i := mem.BlockAddr(0); i < 40; i++ {
			pool = append(pool, base+i)
		}
	}
	touched := map[mem.BlockAddr]bool{}
	rng := sim.NewRand(3)
	for op := 0; op < 4000; op++ {
		c := caches[rng.Intn(len(caches))]
		a := pool[rng.Intn(len(pool))]
		what := "insert"
		switch r := rng.Intn(10); {
		case r < 6:
			if c.Lookup(a) == nil {
				c.Insert(a, mem.VMID(rng.Intn(3)))
			}
			touched[a] = true
		case r < 9:
			what = "invalidate"
			if b := c.Lookup(a); b != nil {
				c.Invalidate(a, b)
			}
		default:
			what = "flush"
			c.FlushVM(mem.VMID(rng.Intn(3)))
		}
		for b := range touched {
			for i, cc := range caches {
				if got, want := cc.Holds(b), cc.Lookup(b) != nil; got != want {
					t.Fatalf("op %d (%s): cache %d Holds(%d) = %v, tags say %v", op, what, i, b, got, want)
				}
			}
		}
	}
	valid := 0
	for _, c := range caches {
		valid += c.CountValid()
	}
	if valid == 0 || len(touched) < len(pool)/2 {
		t.Fatalf("weak run: %d valid blocks at the end, %d of %d blocks touched", valid, len(touched), len(pool))
	}
}

func TestShareHoldersRejectsBadMembership(t *testing.T) {
	h := NewHolders(2)
	used := small()
	used.Insert(1, 1)
	for name, fn := range map[string]func(){
		"member out of range": func() { small().ShareHolders(h, 2) },
		"used cache":          func() { used.ShareHolders(h, 0) },
		"second bitset": func() {
			c := small()
			c.ShareHolders(h, 0)
			c.ShareHolders(NewHolders(1), 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ShareHolders did not panic", name)
				}
			}()
			fn()
		}()
	}
}
