package cache

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
)

func small() *Cache {
	return New(Config{Name: "t", SizeBytes: 4 * 1024, Ways: 4, BlockBytes: 64, HitLatency: 2})
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"32 KiB 4-way", Config{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 64}, true},
		{"256 KiB 8-way", Config{SizeBytes: 256 * 1024, Ways: 8, BlockBytes: 64}, true},
		{"one set", Config{SizeBytes: 512, Ways: 8, BlockBytes: 64}, true},
		{"sets not a power of two", Config{SizeBytes: 3 * 4 * 64, Ways: 4, BlockBytes: 64}, false},
		{"partial set", Config{SizeBytes: 3000, Ways: 4, BlockBytes: 64}, false},
		{"whole sets plus a remainder", Config{SizeBytes: 256*1024 + 100, Ways: 8, BlockBytes: 64}, false},
		{"whole sets plus one block", Config{SizeBytes: 256*1024 + 64, Ways: 8, BlockBytes: 64}, false},
		{"less than one set", Config{SizeBytes: 256, Ways: 8, BlockBytes: 64}, false},
		{"zero size", Config{SizeBytes: 0, Ways: 4, BlockBytes: 64}, false},
		{"zero ways", Config{SizeBytes: 4096, Ways: 0, BlockBytes: 64}, false},
		{"negative block", Config{SizeBytes: 4096, Ways: 4, BlockBytes: -64}, false},
	} {
		tc.cfg.Name = tc.name
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestWayLayout pins a simulated way at 16 host bytes: a 12-byte data
// block with no copy of its address and a 32-bit LRU stamp, and a 4-byte
// tag word.
func TestWayLayout(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 12 {
		t.Fatalf("Block is %d bytes, want 12", got)
	}
	if got := unsafe.Sizeof(small().tags[0]); got != 4 {
		t.Fatalf("tag word is %d bytes, want 4", got)
	}
}

// TestTagRange round-trips the highest address a tag word can hold, and
// checks that addresses past it are never found and cannot be inserted:
// truncated to 32 bits, one past the top would match an empty way's tag 0,
// and 2^32 above block 5 would match block 5's tag.
func TestTagRange(t *testing.T) {
	c := small() // 16 sets: 4 index bits
	top := mem.BlockAddr((tagLimit-1)<<4 | 5)
	past := mem.BlockAddr(tagLimit<<4 | 5)
	alias := mem.BlockAddr(1<<36 | 5)
	b, _, _ := c.Insert(top, 1)
	if c.Lookup(top) != b {
		t.Fatal("top-of-range block not found")
	}
	c.ForEachValid(func(a mem.BlockAddr, _ *Block) {
		if a != top {
			t.Fatalf("ForEachValid yields %#x, want %#x", a, top)
		}
	})
	if c.Invalidate(top, b).Addr != top {
		t.Fatal("eviction info lost the top-of-range address")
	}
	c.Insert(5, 1)
	if c.Lookup(past) != nil || c.Lookup(alias) != nil {
		t.Fatal("an address beyond the tag range aliases a way")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("insert beyond the tag range did not panic")
		}
	}()
	c.Insert(past, 1)
}

// TestForEachValidAddresses fills a cache past capacity with scattered
// addresses, in two geometries, and checks that ForEachValid yields every
// resident block exactly once, at its true address, and that each
// eviction reports the address that was inserted.
func TestForEachValidAddresses(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "4-way", SizeBytes: 4 * 1024, Ways: 4, BlockBytes: 64},
		{Name: "3-way", SizeBytes: 3 * 8 * 64, Ways: 3, BlockBytes: 64},
	} {
		c := New(cfg)
		r := sim.NewRand(9)
		want := map[mem.BlockAddr]*Block{}
		for i := 0; i < 200; i++ {
			a := mem.BlockAddr(r.Uint64() >> 30)
			if c.Lookup(a) != nil {
				continue
			}
			b, v, ev := c.Insert(a, mem.VMID(i%3))
			if ev {
				if _, ok := want[v.Addr]; !ok {
					t.Fatalf("%s: evicted %#x, never inserted or already gone", cfg.Name, v.Addr)
				}
				delete(want, v.Addr)
			}
			want[a] = b
		}
		n := 0
		c.ForEachValid(func(a mem.BlockAddr, b *Block) {
			n++
			if want[a] != b {
				t.Fatalf("%s: ForEachValid yields %#x with a block that is not its own", cfg.Name, a)
			}
		})
		if n != len(want) || n != c.CountValid() {
			t.Fatalf("%s: ForEachValid yields %d blocks, want %d", cfg.Name, n, len(want))
		}
	}
}

// TestInvalidateChecksBlock checks that Invalidate refuses a block that
// is not the one holding the given address: a block from another set,
// another block or an empty way of the address's set, and an address the
// cache does not hold.
func TestInvalidateChecksBlock(t *testing.T) {
	c := small() // 16 sets
	b1, _, _ := c.Insert(1, 1)
	b17, _, _ := c.Insert(17, 1) // set 1 too
	b2, _, _ := c.Insert(2, 1)
	for _, tc := range []struct {
		name string
		a    mem.BlockAddr
		b    *Block
	}{
		{"block from another set", 1, b2},
		{"block of another address in the set", 1, b17},
		{"absent address", 33, b1},
		{"empty way of the set", 1, &c.blocks[c.ways+2]},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Invalidate did not panic", tc.name)
				}
			}()
			c.Invalidate(tc.a, tc.b)
		}()
	}
	if c.CountValid() != 3 {
		t.Fatalf("a refused Invalidate dropped a block: %d valid, want 3", c.CountValid())
	}
}

func TestInsertLookup(t *testing.T) {
	c := small()
	b, _, ev := c.Insert(100, 1)
	if ev {
		t.Fatal("eviction from empty cache")
	}
	if b.VM != 1 || b.Tokens != 0 {
		t.Fatalf("inserted block wrong: %+v", b)
	}
	c.ForEachValid(func(a mem.BlockAddr, got *Block) {
		if a != 100 || got != b {
			t.Fatalf("ForEachValid yields block %p at %d, want %p at 100", got, a, b)
		}
	})
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
	c.Invalidate(1, c.Lookup(1))
	if c.Resident(1) != 1 {
		t.Fatalf("counter after invalidate = %d", c.Resident(1))
	}
	c.Invalidate(2, c.Lookup(2))
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
	c.Invalidate(1, c.Lookup(1))
	if len(fired) != 0 {
		t.Fatal("fired before counter reached zero")
	}
	c.Invalidate(2, c.Lookup(2))
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
	c.Invalidate(1, c.Lookup(1)) // 2: not below threshold 2
	c.Invalidate(2, c.Lookup(2)) // 1: below
	c.Invalidate(3, c.Lookup(3)) // 0: below
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
		{Block{VM: 7, Tokens: 0}, Invalid},
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

// checkTags asserts the tag/data split's invariant: the address a valid
// way's tag and set encode sits in that set and looks up to the way's
// block; an empty way's block is zeroed.
func checkTags(t *testing.T, c *Cache) {
	t.Helper()
	for i, tag := range c.tags {
		b := &c.blocks[i]
		if tag == 0 {
			if *b != (Block{}) {
				t.Fatalf("empty way %d holds block %+v", i, *b)
			}
			continue
		}
		a := c.addrOf(tag, uint64(i/c.ways))
		switch {
		case int(c.setIndex(a)) != i/c.ways:
			t.Fatalf("way %d: block %d outside its set", i, a)
		case c.Lookup(a) != b:
			t.Fatalf("way %d: tag %d but Lookup(%d) finds another way", i, tag, a)
		}
	}
}

// TestTagsMatchBlocks mutates a cache in every way the coherence
// controllers do — inserts that evict, an invalidation, a touch, a VM
// flush — and checks the tag/data split after each step.
func TestTagsMatchBlocks(t *testing.T) {
	c := small() // 16 sets x 4 ways
	// Inserting 96 blocks fills every way, then evicts.
	for a := mem.BlockAddr(0); a < 96; a++ {
		b, _, _ := c.Insert(a, mem.VMID(a%4))
		b.Tokens, b.Owner = int16(a%5)+1, a%2 == 0
	}
	checkTags(t, c)
	// Blocks 0..31 are evicted by now; 32..95 are resident.
	c.Invalidate(37, c.Lookup(37))
	c.Touch(c.Lookup(39))
	checkTags(t, c)
	if got := len(c.FlushVM(3)); got != 16 {
		t.Fatalf("FlushVM(3) flushed %d blocks, want 16", got)
	}
	c.Lookup(41).Dirty = true
	c.Insert(197, 2) // refills the way 37 left in set 5
	checkTags(t, c)
	if got := c.CountValid(); got != 64-16 {
		t.Fatalf("valid blocks = %d, want %d", got, 64-16)
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
			switch r.Intn(9) {
			case 0, 1, 2, 3, 4, 5:
				vm := mem.VMID(r.Intn(4))
				if c.Lookup(next) == nil {
					c.Insert(next, vm)
				}
				next = mem.BlockAddr(r.Intn(512))
			case 6, 7:
				a := mem.BlockAddr(r.Intn(512))
				if b := c.Lookup(a); b != nil {
					c.Invalidate(a, b)
				}
			case 8:
				c.FlushVM(mem.VMID(r.Intn(4)))
			}
		}
		counts := make(map[mem.VMID]int)
		c.ForEachValid(func(_ mem.BlockAddr, b *Block) { counts[b.VM]++ })
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
				c.Invalidate(a, c.Lookup(a))
			}
		}
		seen := make(map[mem.BlockAddr]bool)
		dup := false
		c.ForEachValid(func(a mem.BlockAddr, _ *Block) {
			if seen[a] {
				dup = true
			}
			seen[a] = true
		})
		return !dup && c.CountValid() <= c.NumSets()*4
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// refWay is one way of the LRU model with 64-bit stamps that
// TestTickWrapKeepsVictims holds the cache to.
type refWay struct {
	addr  mem.BlockAddr
	stamp uint64
}

// TestTickWrapKeepsVictims forces the 32-bit tick to wrap eight times in a
// random access stream and checks every eviction against an LRU model
// whose stamps are 64 bits and never wrap: renumbering must keep each
// set's order, so the victims are the same.
func TestTickWrapKeepsVictims(t *testing.T) {
	r := sim.NewRand(7)
	c := small()
	nSets := uint64(c.NumSets())
	ref := make([][]refWay, nSets)
	var tick uint64
	for round := 0; round < 8; round++ {
		// Raising the tick keeps every stamp below it; the model's own
		// tick keeps counting from where it was.
		c.tick = math.MaxUint32 - 300
		wraps := 0
		for i := 0; i < 800; i++ {
			before := c.tick
			a := mem.BlockAddr(r.Intn(96))
			set := &ref[uint64(a)&(nSets-1)]
			k := -1
			for j, w := range *set {
				if w.addr == a {
					k = j
				}
			}
			tick++
			switch b := c.Lookup(a); {
			case b != nil && r.Bool(0.2):
				c.Invalidate(a, b)
				*set = append((*set)[:k], (*set)[k+1:]...)
			case b != nil:
				c.Touch(b)
				(*set)[k].stamp = tick
			default:
				_, victim, evicted := c.Insert(a, 1)
				want := -1
				if len(*set) == 4 {
					want = 0
					for j, w := range *set {
						if w.stamp < (*set)[want].stamp {
							want = j
						}
					}
				}
				if evicted != (want >= 0) {
					t.Fatalf("round %d op %d: evicted = %v with %d ways valid", round, i, evicted, len(*set))
				}
				if want >= 0 {
					if victim.Addr != (*set)[want].addr {
						t.Fatalf("round %d op %d: evicted %d, the 64-bit model evicts %d",
							round, i, victim.Addr, (*set)[want].addr)
					}
					*set = append((*set)[:want], (*set)[want+1:]...)
				}
				*set = append(*set, refWay{a, tick})
			}
			if c.tick < before {
				wraps++
			}
			// Stamps stay distinct within a set, so no victim choice
			// falls to a tie.
			for base := 0; base < len(c.tags); base += c.ways {
				for x := base; x < base+c.ways; x++ {
					for y := x + 1; y < base+c.ways; y++ {
						if c.tags[x] != 0 && c.tags[y] != 0 && c.blocks[x].lru == c.blocks[y].lru {
							t.Fatalf("round %d op %d: ways %d and %d share stamp %d", round, i, x, y, c.blocks[x].lru)
						}
					}
				}
			}
		}
		if wraps != 1 {
			t.Fatalf("round %d: the tick wrapped %d times, want 1", round, wraps)
		}
	}
}
