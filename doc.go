// Package fuzzybarrier reproduces "The Fuzzy Barrier: A Mechanism for
// High Speed Synchronization of Processors" (Rajiv Gupta, ASPLOS 1989).
//
// The fuzzy barrier replaces the single synchronization point of a
// conventional barrier with a *region* of instructions: a processor is
// ready to synchronize when it enters the region, keeps executing inside
// it while synchronization is pending, and stalls only if it reaches the
// region's end first. The repository contains:
//
//   - internal/core — the mechanism itself: the hardware barrier unit
//     (state machine, tag/mask register, broadcast ready lines), the
//     runtime split-phase barriers (Arrive/Wait) for goroutines — the
//     central-counter FuzzyBarrier, the combining-tree TreeBarrier,
//     two-level HierBarrier and allreduce ReduceBarrier for large
//     participant counts (one combining tree under all three); the four
//     embed one publish/wait/stats core and count arrivals two ways, a
//     central counter and the combining tree — and the Section 5
//     multi-barrier allocation discipline;
//   - internal/machine, internal/mem, internal/isa — a deterministic
//     cycle-level multiprocessor simulator with per-instruction
//     barrier-region bits;
//   - internal/lang, internal/ir, internal/dag, internal/compiler — the
//     Section 4 parallelizing compiler: dependence analysis, marked
//     instructions, region construction, three-phase DAG reordering,
//     loop distribution and unrolling;
//   - internal/baseline — the sense-reversing barrier, the conventional
//     barrier the split barriers are timed against, and the split-barrier
//     factory;
//   - internal/sched, internal/workload, internal/exp — static schedules,
//     workload generators and the experiment harness regenerating every
//     table and figure of the paper (cmd/experiments);
//   - internal/trace, internal/stats — observability: Gantt/event
//     recording, per-phase cycle attribution (Phases), Chrome
//     trace-event export (WriteChrome), table rendering and numeric
//     helpers; the runtime barriers expose counter/histogram snapshots
//     (core.BarrierStats). All hooks accept nil receivers and are
//     allocation-free when disabled.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package fuzzybarrier
