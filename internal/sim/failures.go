package sim

import (
	"fmt"
	"math"
)

// FailureModel decides when acquired VMs crash. The paper's future work
// (§9) proposes using dynamic tasks for "enhanced fault tolerance and
// recovery mechanisms in continuous dataflow"; this model lets the
// simulator exercise that scenario: a crashed VM disappears from the fleet,
// its buffered messages are lost, and policies must re-provision (and may
// switch to cheaper alternates to restore throughput fast with surviving
// capacity).
type FailureModel interface {
	// DeathAgeSec returns how many seconds after acquisition the VM with
	// the given trace id crashes, or a negative value for an immortal VM.
	DeathAgeSec(vmTraceID int64) int64
}

// NoFailures is the default: VMs never crash.
type NoFailures struct{}

// DeathAgeSec implements FailureModel.
func (NoFailures) DeathAgeSec(int64) int64 { return -1 }

// ExponentialFailures draws each VM's lifetime from an exponential
// distribution with the given mean time between failures, deterministically
// per VM trace id, so runs remain reproducible.
type ExponentialFailures struct {
	// MTBFSec is the mean VM lifetime in seconds (> 0).
	MTBFSec int64
	// Seed decorrelates lifetimes between models.
	Seed int64
}

// DeathAgeSec implements FailureModel.
func (f ExponentialFailures) DeathAgeSec(vmTraceID int64) int64 {
	if f.MTBFSec <= 0 {
		return -1
	}
	h := splitmix64(uint64(vmTraceID) ^ uint64(f.Seed)*0x9e3779b97f4a7c15)
	// Map the hash to (0,1) and invert the exponential CDF.
	u := (float64(h>>11) + 0.5) / (1 << 53)
	age := -math.Log(u) * float64(f.MTBFSec)
	if age < 1 {
		age = 1
	}
	return int64(age)
}

// splitmix64 mixes an id into a well-distributed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// crashDueVMs kills every running VM whose lifetime expired by time sec:
// cores are unassigned, buffered messages at the VM are lost (counted), the
// VM is released (billing still rounds up to the hour — the cloud does not
// refund a crashed tenant in this model), and monitors forget it. A VM that
// crashes while still provisioning simply never comes up (and is never
// billed). Each crash is recorded in the audit log with its lost-message
// count, so replays show why throughput dipped.
func (e *Engine) crashDueVMs(sec int64) error {
	if e.cfg.Failures == nil && e.cfg.Preemption == nil {
		return nil
	}
	// A crash releases the VM, which removes it from the live list, so the
	// walk reads the list afresh and stays at i after each crash.
	for i := 0; i < len(e.fleet.Live()); {
		vm := e.fleet.Live()[i]
		age := int64(-1)
		if e.cfg.Failures != nil {
			age = e.cfg.Failures.DeathAgeSec(e.vmTraceID(vm.ID))
		}
		if e.cfg.Preemption != nil && vm.Class.Preemptible {
			// Spot reclamation: a second, usually much shorter clock.
			if p := e.cfg.Preemption.DeathAgeSec(e.vmTraceID(vm.ID) ^ 0x5bd1e995); p >= 0 && (age < 0 || p < age) {
				age = p
			}
		}
		if age < 0 || sec-vm.StartSec < age {
			i++
			continue
		}
		action := "crash"
		if vm.Class.Preemptible {
			e.preemptions++
			action = "preempt"
		}
		lost := 0.0
		for pe := range e.pes {
			p := &e.pes[pe]
			s := p.slotOf(vm.ID)
			if s < 0 {
				continue
			}
			if n := p.cores[s]; n > 0 {
				if err := e.fleet.UnassignCores(vm.ID, n); err != nil {
					return fmt.Errorf("sim: crash cleanup: %w", err)
				}
			}
			// The slot's messages die with the VM, and the slot with them.
			lost += p.queue[s]
			p.dropSlot(s)
		}
		e.lostMessages += lost
		wasPending := vm.Pending()
		if err := e.fleet.Release(vm.ID, sec); err != nil {
			return fmt.Errorf("sim: crash release: %w", err)
		}
		e.crashCount++
		e.vmMon.Forget(vm.ID)
		detail := vm.Class.Name
		if wasPending {
			detail += " (pending)"
		}
		e.audit(AuditEntry{Action: action, VM: vm.ID, Lost: lost, Detail: detail})
	}
	return nil
}

// Crashes reports how many VMs have failed so far (including preemptions).
func (e *Engine) Crashes() int { return e.crashCount }

// Preemptions reports how many of the crashes were spot reclamations.
func (e *Engine) Preemptions() int { return e.preemptions }

// LostMessages reports messages destroyed by VM crashes.
func (e *Engine) LostMessages() float64 { return e.lostMessages }
