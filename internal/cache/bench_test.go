package cache

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
)

func benchCache() *Cache {
	return New(Config{Name: "L2", SizeBytes: 256 * 1024, Ways: 8, BlockBytes: 64, HitLatency: 10})
}

func BenchmarkLookupHit(b *testing.B) {
	c := benchCache()
	for i := 0; i < 1024; i++ {
		c.Insert(mem.BlockAddr(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(mem.BlockAddr(i&1023)) == nil {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	c := benchCache()
	for i := 0; i < 1024; i++ {
		c.Insert(mem.BlockAddr(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(mem.BlockAddr(1_000_000+i)) != nil {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkLookupSpread probes 16 full L2s (the Table II machine's private
// caches, 4096 ways each) at random. At 16 bytes a way (a 4-byte tag word
// and a 12-byte block) that is 16 x 4096 x 16 B = 1 MiB of tags and
// blocks: far past a 32-48 KiB host L1d but inside a 2 MiB per-core host
// L2, so it measures what a snoop or a miss probe pays when its set has
// left the host L1 but not the host L2. Half the probes hit.
func BenchmarkLookupSpread(b *testing.B) {
	const caches, blocks = 16, 4096
	l2 := make([]*Cache, caches)
	for i := range l2 {
		l2[i] = benchCache()
		for a := 0; a < blocks; a++ {
			l2[i].Insert(mem.BlockAddr(i*blocks+a), 1)
		}
	}
	type probe struct {
		c    *Cache
		addr mem.BlockAddr
	}
	rng := sim.NewRand(1)
	probes := make([]probe, 1<<16)
	for i := range probes {
		ci := rng.Intn(caches)
		a := mem.BlockAddr(ci*blocks + rng.Intn(blocks))
		if i&1 == 1 {
			a += caches * blocks // same sets, absent tag
		}
		probes[i] = probe{l2[ci], a}
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		p := probes[i&(len(probes)-1)]
		if p.c.Lookup(p.addr) != nil {
			hits++
		}
	}
	if b.N >= 2 && hits == 0 {
		b.Fatal("no probe hit")
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := benchCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mem.BlockAddr(i)
		if c.Lookup(a) == nil {
			c.Insert(a, mem.VMID(i&3))
		}
	}
}

func BenchmarkFlushVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := benchCache()
		for j := 0; j < 4096; j++ {
			c.Insert(mem.BlockAddr(j), mem.VMID(j&3))
		}
		b.StartTimer()
		c.FlushVM(1)
	}
}

// TestHotOpsZeroAlloc gates the per-access cache operations at zero
// allocations once the residence counter file has grown to its VMs: every
// coherence transaction and every snoop runs them. The cache shares a
// holder bitset, so Holds is gated too, and so is an Insert whose block's
// bitset chunk already exists.
func TestHotOpsZeroAlloc(t *testing.T) {
	c := benchCache()
	c.ShareHolders(NewHolders(4), 2)
	next := mem.BlockAddr(0)
	for ; next < 8192; next++ { // a full cache, then a round of evictions
		c.Insert(next, mem.VMID(next&3))
	}
	victim := next - 1
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"Lookup", func() {
			if c.Lookup(next-1) == nil || c.Lookup(next+1<<20) != nil {
				t.Fatal("lookup answered wrong")
			}
		}},
		{"Holds", func() {
			if !c.Holds(next-1) || c.Holds(next+1<<20) {
				t.Fatal("Holds answered wrong")
			}
		}},
		{"Insert", func() {
			if _, _, evicted := c.Insert(next, mem.VMID(next&3)); !evicted {
				t.Fatal("insert into a full cache did not evict")
			}
			next++
		}},
		{"Invalidate", func() {
			c.Invalidate(victim, c.Lookup(victim))
			victim--
		}},
	} {
		if avg := testing.AllocsPerRun(100, op.fn); avg != 0 {
			t.Errorf("%s allocates %.2f times per call, want 0", op.name, avg)
		}
	}
}
