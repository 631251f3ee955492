package cache

import (
	"fmt"
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
)

// TestHoldersMatchTags drives random Inserts (evicting), Invalidates and
// FlushVMs on caches that share one Holders bitset, and after every
// operation requires Holds to agree with the tag array for every block
// touched so far, in every cache, and each block's Lane to carry exactly
// the members whose tags hold it. It runs a three-member bitset (4-bit
// lanes, one member bit unused) and a machine-wide 16-member one (16-bit
// lanes, as a 16-core machine shares). The block pool straddles chunk
// boundaries, so materialized and untouched chunks are both exercised, and
// a cache with no shared bitset answers from its tags.
func TestHoldersMatchTags(t *testing.T) {
	for _, members := range []int{3, 16} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			holdersMatchTags(t, members)
		})
	}
}

func holdersMatchTags(t *testing.T, members int) {
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
	full := 0 // blocks seen held by more than one member at once
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
			var lane uint64
			for i, cc := range caches {
				got, want := cc.Holds(b), cc.Lookup(b) != nil
				if got != want {
					t.Fatalf("op %d (%s): cache %d Holds(%d) = %v, tags say %v", op, what, i, b, got, want)
				}
				if want && i < members {
					lane |= 1 << i
				}
			}
			if got := h.Lane(b); got != lane {
				t.Fatalf("op %d (%s): Lane(%d) = %#x, tags say %#x", op, what, b, got, lane)
			}
			if lane&(lane-1) != 0 {
				full++
			}
		}
	}
	valid := 0
	for _, c := range caches {
		valid += c.CountValid()
	}
	if valid == 0 || len(touched) < len(pool)/2 || full == 0 {
		t.Fatalf("weak run: %d valid blocks at the end, %d of %d blocks touched, %d multi-holder lanes",
			valid, len(touched), len(pool), full)
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
