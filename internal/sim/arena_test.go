package sim

import (
	"slices"
	"testing"
)

// fillSlot inserts the VM's slot and gives each of its arrays a value of its
// own, derived from the VM id, so checkRow can tell which slot and array a
// value came from.
func fillSlot(p *peState, vm int) {
	s := p.ensureSlot(vm)
	f := float64(vm)
	p.cores[s] = vm + 1
	p.queue[s], p.arr[s], p.capa[s], p.rshare[s], p.oshare[s] = f, f+0.1, f+0.2, f+0.3, f+0.4
	p.hasArr[s], p.host[s] = vm%3 == 0, vm%5 == 0
}

// checkRow fails unless the row is the unassigned slot followed by the
// given VMs' slots, each array holding the values fillSlot gave that VM.
func checkRow(t *testing.T, p *peState, vms ...int) {
	t.Helper()
	if want := append([]int{-1}, vms...); !slices.Equal(p.vms, want) {
		t.Fatalf("row holds VMs %v, want %v", p.vms, want)
	}
	n := len(p.vms)
	if len(p.cores) != n || len(p.queue) != n || len(p.arr) != n || len(p.hasArr) != n ||
		len(p.capa) != n || len(p.host) != n || len(p.rshare) != n || len(p.oshare) != n {
		t.Fatalf("the row's arrays hold different slot counts: %+v", p)
	}
	if p.cores[0] != 0 || p.queue[0] != 0 || p.arr[0] != 0 || p.capa[0] != 0 ||
		p.rshare[0] != 0 || p.oshare[0] != 0 || p.hasArr[0] || p.host[0] {
		t.Fatalf("the unassigned slot was overwritten: %+v", p)
	}
	for s := 1; s < n; s++ {
		vm := p.vms[s]
		f := float64(vm)
		if p.cores[s] != vm+1 || p.queue[s] != f || p.arr[s] != f+0.1 || p.capa[s] != f+0.2 ||
			p.rshare[s] != f+0.3 || p.oshare[s] != f+0.4 ||
			p.hasArr[s] != (vm%3 == 0) || p.host[s] != (vm%5 == 0) {
			t.Fatalf("slot %d of VM %d holds another slot's values: %+v", s, vm, p)
		}
	}
}

// TestArenaRowsGrowApart: a row's nine slot arrays share three blocks, so
// inserting slots, in and past the blocks' room, and dropping and
// re-inserting them must leave every array holding its own slots in VM-id
// order. A row's first rowSlots-1 placements must allocate nothing beyond
// its three blocks, and a re-insert into the room a drop freed nothing at
// all.
func TestArenaRowsGrowApart(t *testing.T) {
	// Inside the blocks: a drop or an insert that wrote past its own array
	// would land in the neighbour's slots.
	p := newPEState()
	for _, vm := range []int{5, 2, 8} {
		fillSlot(&p, vm)
	}
	checkRow(t, &p, 2, 5, 8)
	p.dropSlot(1)
	checkRow(t, &p, 5, 8)
	p.dropSlot(2)
	checkRow(t, &p, 5)
	fillSlot(&p, 9)
	fillSlot(&p, 3)
	checkRow(t, &p, 3, 5, 9)

	// Past the blocks, where each array has grown on its own.
	p = newPEState()
	for _, vm := range []int{7, 2, 9, 0, 5, 3, 8, 1, 6, 4} {
		fillSlot(&p, vm)
	}
	checkRow(t, &p, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	p.dropSlot(p.slotOf(0))
	p.dropSlot(p.slotOf(9))
	p.dropSlot(p.slotOf(4))
	checkRow(t, &p, 1, 2, 3, 5, 6, 7, 8)
	fillSlot(&p, 4)
	fillSlot(&p, 11)
	checkRow(t, &p, 1, 2, 3, 4, 5, 6, 7, 8, 11)

	var row peState
	if allocs := testing.AllocsPerRun(100, func() {
		row = newPEState()
		for vm := 0; vm < rowSlots-1; vm++ {
			row.ensureSlot(vm)
		}
	}); allocs > 3 {
		t.Fatalf("a new row and its first %d placements allocate %v times, want at most 3", rowSlots-1, allocs)
	}
	// The row is full; a drop frees room that the next insert reuses.
	if allocs := testing.AllocsPerRun(100, func() {
		row.dropSlot(1)
		row.ensureSlot(rowSlots)
		row.dropSlot(rowSlots - 1)
		row.ensureSlot(0)
	}); allocs != 0 {
		t.Fatalf("a drop and a re-insert within the row's capacity allocate %v times, want 0", allocs)
	}
}
