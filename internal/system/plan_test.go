package system

import (
	"slices"
	"testing"
)

// TestQuadrantRule pins the snoop-domain cut: the default config is cut
// into the four 2x2 quadrants, cores and memory-controller corners alike,
// and machines without quadrant placement (linear placement, the 8x8
// large-mesh config, two VMs of eight vCPUs) are one domain.
func TestQuadrantRule(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantCore := []int32{0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3}
	if !slices.Equal(m.coreDom, wantCore) {
		t.Errorf("default core domains %v, want %v", m.coreDom, wantCore)
	}
	if len(m.doms) != 4 {
		t.Fatalf("default config has %d domains, want 4", len(m.doms))
	}
	for d, dom := range m.doms {
		// MC j sits at corner j: (0,0), (3,0), (0,3), (3,3).
		if want := []int{d}; !slices.Equal(dom.mcs, want) {
			t.Errorf("domain %d owns MCs %v, want %v", d, dom.mcs, want)
		}
	}
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"linear-placement", func(c *Config) { c.LinearPlacement = true }},
		{"large-mesh", func(c *Config) { c.Cores, c.Mesh.Width, c.Mesh.Height, c.VMs = 64, 8, 8, 16 }},
		{"2x8-vcpus", func(c *Config) { c.VMs, c.VCPUsPerVM = 2, 8 }},
	} {
		cfg := DefaultConfig()
		c.set(&cfg)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.doms) != 1 || len(m.doms[0].cores) != cfg.Cores || len(m.doms[0].mcs) != cfg.MCs {
			t.Errorf("%s: %d domains, want one holding every core and MC", c.name, len(m.doms))
		}
		for i, d := range m.coreDom {
			if d != 0 {
				t.Fatalf("%s: core %d in domain %d", c.name, i, d)
			}
		}
	}
}
