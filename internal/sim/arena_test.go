package sim

import "testing"

// TestArenaRowsGrowApart: a row's ten slot arrays share three blocks, so
// inserting slots, in and past the blocks' room, must leave every array
// holding its own slots in VM-id order, and a row's first rowSlots-1
// placements must allocate nothing beyond its three blocks.
func TestArenaRowsGrowApart(t *testing.T) {
	p := newPEState()
	for _, vm := range []int{7, 2, 9, 0, 5, 3, 8, 1, 6, 4} {
		s := p.ensureSlot(vm)
		p.cores[s] = vm + 1
		p.queue[s], p.arr[s], p.capa[s], p.rshare[s], p.oshare[s] = float64(vm), float64(vm)+0.1, float64(vm)+0.2, float64(vm)+0.3, float64(vm)+0.4
		p.hasQ[s], p.hasArr[s], p.host[s] = vm%2 == 0, vm%3 == 0, vm%5 == 0
	}
	for s, vm := range p.vms {
		if s == 0 {
			if vm != -1 || p.cores[0] != 0 || p.queue[0] != 0 || p.arr[0] != 0 || p.capa[0] != 0 ||
				p.rshare[0] != 0 || p.oshare[0] != 0 || p.hasQ[0] || p.hasArr[0] || p.host[0] {
				t.Fatalf("the unassigned slot was overwritten: %+v", p)
			}
			continue
		}
		if vm != s-1 {
			t.Fatalf("slot %d holds VM %d, want %d", s, vm, s-1)
		}
		f := float64(vm)
		if p.cores[s] != vm+1 || p.queue[s] != f || p.arr[s] != f+0.1 || p.capa[s] != f+0.2 ||
			p.rshare[s] != f+0.3 || p.oshare[s] != f+0.4 ||
			p.hasQ[s] != (vm%2 == 0) || p.hasArr[s] != (vm%3 == 0) || p.host[s] != (vm%5 == 0) {
			t.Fatalf("slot %d of VM %d holds another slot's values: %+v", s, vm, p)
		}
	}
	var row peState
	if allocs := testing.AllocsPerRun(100, func() {
		row = newPEState()
		for vm := 0; vm < rowSlots-1; vm++ {
			row.ensureSlot(vm)
		}
	}); allocs > 3 {
		t.Fatalf("a new row and its first %d placements allocate %v times, want at most 3", rowSlots-1, allocs)
	}
}
