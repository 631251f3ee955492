package cache

import (
	"fmt"
	"testing"

	"vsnoop/internal/mem"
)

// checkTags asserts the tag/data split's invariant: a valid way's block
// carries the tag's address and sits in that address's set; an empty way's
// block is zeroed.
func checkTags(t *testing.T, c *Cache) {
	t.Helper()
	for i, tag := range c.tags {
		b := c.blocks[i]
		switch {
		case tag == 0 && b != (Block{}):
			t.Fatalf("empty way %d holds block %+v", i, b)
		case tag != 0 && b.Addr+1 != tag:
			t.Fatalf("way %d: tag %d but block address %d", i, tag-1, b.Addr)
		case tag != 0 && int(c.setIndex(b.Addr)) != i/c.ways:
			t.Fatalf("way %d: block %d outside its set", i, b.Addr)
		}
	}
}

// lookupView records what Lookup answers for addrs (nil = miss) plus the
// residence counters, for comparing a cache before and after a round trip.
func lookupView(c *Cache, addrs []mem.BlockAddr) string {
	s := ""
	for _, a := range addrs {
		if b := c.Lookup(a); b != nil {
			s += fmt.Sprintf("%d:%+v ", a, *b)
		}
	}
	for vm := mem.VMID(0); vm < 4; vm++ {
		s += fmt.Sprintf("r%d=%d ", vm, c.Resident(vm))
	}
	return s + fmt.Sprintf("tick=%d", c.tick)
}

// TestSnapshotRoundTrip mutates a checkpointed cache in every way the
// coherence controllers do — inserts that evict, invalidations, a page
// flush spanning every set — across two nested checkpoints, then restores
// the first. Under both the flat and the journaled regime every tag must
// match its block again and Lookup must answer exactly as before the Save.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			c := small() // 16 sets x 4 ways
			for a := mem.BlockAddr(0); a < 48; a++ {
				b, _, _ := c.Insert(a, mem.VMID(a%3))
				b.Tokens, b.Owner = int(a%5)+1, a%2 == 0
			}
			if journaled {
				c.EnableJournal()
			}
			var probe []mem.BlockAddr
			for a := mem.BlockAddr(0); a < 160; a++ {
				probe = append(probe, a)
			}
			before := lookupView(c, probe)

			var s1, s2 Snap
			c.Save(&s1)
			for a := mem.BlockAddr(48); a < 96; a++ { // fills the 4th way, then evicts
				if c.Lookup(a) == nil {
					c.Insert(a, 3)
				}
			}
			// Blocks 0..31 are evicted by now; 32..95 are resident.
			c.Invalidate(c.Lookup(37))
			c.Touch(c.Lookup(39))
			c.Save(&s2)
			if got := len(c.FlushPage(1)); got == 0 { // blocks 64..127: every set
				t.Fatal("page flush found nothing to flush")
			}
			c.Lookup(41).Dirty = true
			c.Insert(200, 2)
			c.Restore(&s1)

			checkTags(t, c)
			if after := lookupView(c, probe); after != before {
				t.Fatalf("restore diverged:\nbefore %s\nafter  %s", before, after)
			}
			if c.CountValid() != 48 {
				t.Fatalf("valid blocks = %d after restore, want 48", c.CountValid())
			}
		})
	}
}
