package congestlb

import "congestlb/internal/fault"

// Fault containment (see docs/robustness.md).
//
// Every layer of a Lab that executes user work — scheduler jobs,
// experiment bodies, the exact solver, the batched CONGEST engine —
// recovers panics into a *PanicError that fails only the owning job,
// solve or batch instance; the pool, the Lab, and sibling tenants keep
// running. The chaos harness behind EnableFaults injects deterministic
// faults (disk errors, corrupt cache entries, panics, stalls) to prove
// it.

// PanicError is the structured error a recovered panic surfaces as: the
// owning work identity (Op, e.g. "experiment:scaling" or "solver worker
// w0"), the panic value, and the stack captured at recovery. Error()
// excludes the stack so failure report lines stay byte-stable; inspect
// the Stack field (errors.As) when debugging.
type PanicError = fault.PanicError

// FaultEnv is the environment variable cmd/experiments reads a fault-
// injection spec from ("<seed>:<plan>", e.g.
// "42:disk-read=0.25,job-panic@scaling*1"). See docs/robustness.md for
// the plan syntax.
const FaultEnv = fault.EnvVar

// EnableFaults installs a process-wide deterministic fault-injection
// plan ("" disables injection). Decisions are pure functions of the
// spec's seed and each site's content key, so a plan reproduces exactly
// across runs and pool sizes. Chaos testing only: the plan is
// process-global, not per-Lab.
func EnableFaults(spec string) error {
	if spec == "" {
		fault.Set(nil)
		return nil
	}
	inj, err := fault.Parse(spec)
	if err != nil {
		return err
	}
	fault.Set(inj)
	return nil
}
