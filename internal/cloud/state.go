package cloud

import "fmt"

// VMRecord is the complete serializable state of one VM, with the class
// referenced by menu name so a snapshot does not embed pricing tables.
// Engine checkpointing (internal/state) stores the fleet as these records.
type VMRecord struct {
	ID        int    `json:"id"`
	Class     string `json:"class"`
	StartSec  int64  `json:"startSec"`
	StopSec   int64  `json:"stopSec"`
	ReadySec  int64  `json:"readySec"`
	UsedCores int    `json:"usedCores,omitempty"`
	TraceID   int64  `json:"traceId,omitempty"`
	Pending   bool   `json:"pending,omitempty"`
}

// Export returns every VM ever acquired as plain records, in id order (the
// fleet's invariant ordering).
func (f *Fleet) Export() []VMRecord {
	out := make([]VMRecord, 0, len(f.vms))
	for _, v := range f.vms {
		out = append(out, VMRecord{
			ID:        v.ID,
			Class:     v.Class.Name,
			StartSec:  v.StartSec,
			StopSec:   v.StopSec,
			ReadySec:  v.ReadySec,
			UsedCores: v.UsedCores,
			TraceID:   v.TraceID,
			Pending:   v.pending,
		})
	}
	return out
}

// Import replaces the fleet's contents with the exported records, resolving
// classes by name on this fleet's menu, and rebuilds the live index from
// them. Records must be dense and in id order (VM i has ID i), matching
// what Export produces; the id counter resumes after the last record.
func (f *Fleet) Import(recs []VMRecord) error {
	vms := make([]*VM, 0, len(recs))
	for i, r := range recs {
		if r.ID != i {
			return fmt.Errorf("cloud: import record %d has id %d (want dense ids)", i, r.ID)
		}
		class, ok := f.menu.ByName(r.Class)
		if !ok {
			return fmt.Errorf("cloud: import VM %d: class %q not on menu", r.ID, r.Class)
		}
		if r.UsedCores < 0 || r.UsedCores > class.Cores {
			return fmt.Errorf("cloud: import VM %d: %d cores used of %d", r.ID, r.UsedCores, class.Cores)
		}
		vms = append(vms, &VM{
			ID:        r.ID,
			Class:     class,
			StartSec:  r.StartSec,
			StopSec:   r.StopSec,
			ReadySec:  r.ReadySec,
			UsedCores: r.UsedCores,
			TraceID:   r.TraceID,
			pending:   r.Pending,
		})
	}
	f.vms = vms
	f.nextID = len(vms)
	f.live, f.active, f.pending = nil, 0, 0
	stopped := false
	for _, v := range vms {
		if v.Stopped() {
			stopped = true
		} else {
			f.count(v, 1)
		}
	}
	if stopped {
		f.live = make([]*VM, 0, f.active+f.pending)
		for _, v := range vms {
			if !v.Stopped() {
				f.live = append(f.live, v)
			}
		}
	}
	return nil
}
