package mem

import "testing"

// contentManager declares the content layout of the content-sharing
// machine on a fresh manager: vms homogeneous VMs of 720 guest pages, the
// first 224 of which hold content every VM shares (specjbb's guest kernel
// text, JIT code and class data).
func contentManager(vms int) *Manager {
	const pages, contentPages = 720, 224
	m := NewManager(0)
	for vm := VMID(0); int(vm) < vms; vm++ {
		m.NewSpace(vm, pages)
		for gp := GuestPage(0); gp < contentPages; gp++ {
			m.SetContent(vm, gp, ContentID(gp+1))
		}
	}
	m.PreallocateAll()
	return m
}

// BenchmarkMergeIdentical times the content merge alone, which also fills
// the sharer sets and the shared-page matrix friend selection reads: on
// the Table II machine's four VMs, and on 70 VMs, whose sharer sets take
// two words.
func BenchmarkMergeIdentical(b *testing.B) {
	for _, bc := range []struct {
		name string
		vms  int
	}{{"4vms", 4}, {"70vms", 70}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := contentManager(bc.vms)
				b.StartTimer()
				m.MergeIdentical()
			}
		})
	}
}
