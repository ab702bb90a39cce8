// Package simos models the operating-system layer the paper's measurements
// run under: processes pinned to CPUs, a time-slice scheduler that produces
// involuntary context switches, and select()-style sleeping that produces
// voluntary context switches (the PostgreSQL spinlock back-off path).
//
// It distinguishes the two clocks the paper distinguishes:
//
//   - thread time: cycles the process spends on a CPU (what the hardware
//     counters measure and Figs. 2, 5, 7 report);
//   - wall time: thread time plus the time the process is off-CPU sleeping in
//     select(), which is why "backoff using the select() call ... increases
//     the wall time (response time) significantly".
package simos

import (
	"fmt"

	"dssmem/internal/machine"
	"dssmem/internal/memsys"
	"dssmem/internal/obs"
	"dssmem/internal/perfctr"
	"dssmem/internal/sim"
)

// Config holds the OS parameters, in CPU cycles of the host machine.
type Config struct {
	// TimeSlice is the scheduling quantum; its expiry causes an involuntary
	// context switch (10 ms on the studied systems).
	TimeSlice uint64
	// SwitchCost is the direct kernel cost of one context switch.
	SwitchCost uint64
	// FlushFraction is the fraction of cache displaced by the kernel/another
	// process across a context switch.
	FlushFraction float64
	// Backoff is the base select() sleep when a spinlock acquisition backs
	// off (the 10 ms select granularity of the era dominates it).
	Backoff uint64
	// Seed perturbs the per-process back-off jitter, letting repeated trials
	// of one configuration differ the way OS noise made the paper's four
	// trials differ. 0 is a valid (default) seed.
	Seed uint64
}

// DefaultConfig returns OS parameters for a machine at the given clock rate.
// Times follow the paper's platforms: 10 ms time slices, ~5 µs switch cost,
// 10 ms select() granularity.
func DefaultConfig(clockMHz int) Config {
	return DefaultConfigScaled(clockMHz, 1)
}

// DefaultConfigScaled returns OS parameters with the select() back-off
// divided by timeScale. When the harness scales the database and caches down
// by a memory-scale factor, run times shrink by the same factor; dividing the
// back-off keeps the ratio of sleep duration to cache-line lifetime — which
// controls how far concurrent scanners drift apart — as on the real machines.
// The time slice is NOT scaled: involuntary switches per instruction are a
// per-CPU-time rate the real systems pin at one per 10 ms.
func DefaultConfigScaled(clockMHz, timeScale int) Config {
	if timeScale < 1 {
		timeScale = 1
	}
	perMs := uint64(clockMHz) * 1000
	backoff := 10 * perMs / uint64(timeScale)
	if backoff < 1000 {
		backoff = 1000
	}
	return Config{
		TimeSlice:     10 * perMs,
		SwitchCost:    5 * perMs / 1000,
		FlushFraction: 0.05,
		Backoff:       backoff,
	}
}

// OS ties a machine to the simulation kernel and runs processes on it.
type OS struct {
	cfg      Config
	mach     *machine.Machine
	kernel   *sim.Kernel
	procs    []*Process
	obs      *obs.Observer
	sampling *obs.SamplingController
}

// New builds an OS over a machine. quantum is the simulation-kernel
// scheduling granule (0 for the default).
func New(m *machine.Machine, cfg Config, quantum sim.Clock) *OS {
	return &OS{cfg: cfg, mach: m, kernel: sim.NewKernel(quantum)}
}

// Machine returns the underlying machine.
func (o *OS) Machine() *machine.Machine { return o.mach }

// Observe attaches an observer: counter sampling at kernel scheduling
// points, context-switch, back-off and lock events, and, when the observer
// attributes regions, every detailed reference. Call before Run (Spawn order
// does not matter — the hooks bind when processes start).
func (o *OS) Observe(ob *obs.Observer) { o.obs = ob }

// Spawn registers a process pinned to the given CPU. Bodies run when Run is
// called. By convention the workload pins process i to CPU i, matching the
// paper's "different query processes are assigned to different processors".
// Spawn panics on a second process for a CPU: a CPU's counters are its
// process's counters.
func (o *OS) Spawn(cpu int, body func(*Process)) *Process {
	for _, q := range o.procs {
		if q.CPU == cpu {
			panic(fmt.Sprintf("simos: a second process on CPU %d", cpu))
		}
	}
	p := &Process{
		os:        o,
		CPU:       cpu,
		sliceLeft: o.cfg.TimeSlice,
		rng:       (uint64(cpu)+o.cfg.Seed*0x9E3779B97F4A7C15+1)*2862933555777941757 + 3037000493,
	}
	p.sp = o.kernel.Spawn(func(sp *sim.Proc) {
		p.sp = sp
		if ob := o.obs; ob != nil {
			sp.OnYield = func(now sim.Clock) { ob.Tick(p.CPU, uint64(now), p.Counters()) }
			sp.OnExit = func(now sim.Clock) { ob.ProcExit(p.CPU, uint64(now), p.Counters()) }
			if ob.Config().Regions {
				p.regions = ob
			}
		}
		body(p)
	})
	o.procs = append(o.procs, p)
	return p
}

// Run executes all processes to completion.
func (o *OS) Run() error { return o.kernel.Run() }

// Interrupt aborts an in-flight Run at the next scheduling-quantum boundary.
// It is the one OS method that may be called from outside the simulation
// (any goroutine, any time); see sim.Kernel.Interrupt.
func (o *OS) Interrupt(cause error) { o.kernel.Interrupt(cause) }

// SetSampling installs a SMARTS interval-sampling controller, consulted on
// every memory access: fast-forwarded accesses skip the machine model and
// charge the controller's estimate instead. Must be called before Run.
func (o *OS) SetSampling(c *obs.SamplingController) { o.sampling = c }

// Processes returns the spawned processes.
func (o *OS) Processes() []*Process { return o.procs }

// Process is one simulated OS process, pinned to a CPU.
type Process struct {
	os        *OS
	sp        *sim.Proc
	CPU       int
	sliceLeft uint64
	rng       uint64
	// regions is the observer when it attributes references to data
	// regions, and nil otherwise.
	regions *obs.Observer
}

// Counters returns the hardware counter file of the process's CPU, which is
// also the process's counter set: Spawn allows one process per CPU.
func (p *Process) Counters() *perfctr.Counters { return p.os.mach.Counters(p.CPU) }

// Now returns the process's wall clock in cycles.
func (p *Process) Now() uint64 { return uint64(p.sp.Now()) }

// ThreadCycles returns the on-CPU (thread) time in cycles.
func (p *Process) ThreadCycles() uint64 { return p.Counters().Cycles }

// VoluntarySwitches reports select() back-offs and I/O waits.
func (p *Process) VoluntarySwitches() uint64 { return p.Counters().VolCtxSwitches }

// InvoluntarySwitches reports time-slice expiries.
func (p *Process) InvoluntarySwitches() uint64 { return p.Counters().InvolCtxSwitches }

// onCPU advances the clock by cycles of on-CPU execution (already counted in
// the CPU's Cycles), handling time-slice expiry.
func (p *Process) onCPU(cycles uint64) {
	p.sp.Advance(sim.Clock(cycles))
	if cycles >= p.sliceLeft {
		p.involuntarySwitch()
	} else {
		p.sliceLeft -= cycles
	}
}

// involuntarySwitch models a quantum expiry: the kernel runs, pollutes the
// cache, and (with one runnable process per CPU) reschedules this process.
func (p *Process) involuntarySwitch() {
	p.Counters().InvolCtxSwitches++
	p.os.obs.CtxSwitch(p.CPU, p.Now(), false)
	p.chargeSwitch()
	p.sliceLeft = p.os.cfg.TimeSlice
}

// chargeSwitch charges the kernel path and cache pollution of one context
// switch. The time-slice timer is NOT reset here: timer ticks fire on on-CPU
// time regardless of voluntary sleeps, so the involuntary-switch rate per
// instruction stays roughly constant as lock contention adds voluntary ones
// (the paper observes involuntary switches growing only slowly while
// voluntary ones take over).
func (p *Process) chargeSwitch() {
	cost := p.os.cfg.SwitchCost
	p.Counters().Cycles += cost
	p.sp.Advance(sim.Clock(cost))
	p.os.mach.FlushFraction(p.CPU, p.os.cfg.FlushFraction, p.Now())
}

// Load performs a read of size bytes at addr.
func (p *Process) Load(addr memsys.Addr, size int) { p.access(addr, size, false) }

// Store performs a write of size bytes at addr.
func (p *Process) Store(addr memsys.Addr, size int) { p.access(addr, size, true) }

func (p *Process) access(addr memsys.Addr, size int, write bool) {
	sc := p.os.sampling
	if sc != nil {
		if cyc, ff := sc.Access(p.CPU, p.Counters(), write, p.Now()); ff {
			// Fast-forwarded: functional counters are bumped, timing is the
			// controller's estimate, and the cache/directory walk (and the
			// region tally, which attributes detailed misses) is skipped.
			p.onCPU(cyc)
			return
		}
	}
	if p.regions == nil {
		cyc := p.os.mach.Access(p.CPU, addr, size, write, p.Now())
		if sc != nil {
			sc.Detailed(p.CPU, cyc)
		}
		p.onCPU(cyc)
		return
	}
	ct := p.Counters()
	l1, l2 := ct.L1DMisses, ct.L2DMisses
	cyc := p.os.mach.Access(p.CPU, addr, size, write, p.Now())
	if sc != nil {
		sc.Detailed(p.CPU, cyc)
	}
	p.regions.Reference(p.CPU, addr, ct.L1DMisses-l1, ct.L2DMisses-l2)
	p.onCPU(cyc)
}

// Work retires n non-memory instructions.
func (p *Process) Work(n uint64) {
	if n == 0 {
		return
	}
	cyc := p.os.mach.InstrCycles(p.CPU, n)
	p.onCPU(cyc)
}

// Spin charges one busy-wait iteration (test of a lock word already counted
// by the caller's Load) and records it.
func (p *Process) Spin() {
	p.Counters().SpinIterations++
	p.Work(4)
}

// Backoff models the PostgreSQL s_lock select() back-off: a voluntary context
// switch and an off-CPU sleep of the base back-off duration with a small
// deterministic jitter. Wall time advances; thread time does not (beyond the
// switch cost itself).
func (p *Process) Backoff() {
	ct := p.Counters()
	ct.VolCtxSwitches++
	ct.LockBackoffs++
	p.os.obs.CtxSwitch(p.CPU, p.Now(), true)
	p.chargeSwitch()
	// Deterministic per-process jitter (xorshift) of up to 25% of the base.
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	sleep := p.os.cfg.Backoff + p.rng%(p.os.cfg.Backoff/4+1)
	p.os.obs.Backoff(p.CPU, p.Now(), sleep)
	p.sp.Advance(sim.Clock(sleep)) // off CPU: wall time only
}

// BlockUntil advances the wall clock to t without consuming CPU (e.g. waiting
// for I/O completion); it yields so other processes can progress.
func (p *Process) BlockUntil(t uint64) {
	p.sp.AdvanceTo(sim.Clock(t))
}

// IOWait models a blocking I/O: the process voluntarily yields the CPU (a
// voluntary context switch, as the paper notes: "a voluntary context switch
// is initiated by the process itself when it does I/O") and sleeps for the
// device latency. Thread time gains only the switch cost.
func (p *Process) IOWait(cycles uint64) {
	p.Counters().VolCtxSwitches++
	p.os.obs.CtxSwitch(p.CPU, p.Now(), true)
	p.chargeSwitch()
	p.sp.Advance(sim.Clock(cycles))
}

// LockAcquired implements lock.Eventer: it counts the acquisition in the
// CPU's counter file (the paper's modified-executable DBMS instrumentation)
// and forwards it to the observer.
func (p *Process) LockAcquired(addr memsys.Addr, contended bool) {
	p.Counters().LockAcquires++
	p.os.obs.LockAcquire(p.CPU, uint64(addr), p.Now(), contended)
}

// BeginOp implements obs.Spanner: it opens an operator-attribution span on
// this process's CPU.
func (p *Process) BeginOp(name string) {
	p.os.obs.BeginOp(p.CPU, name, p.Now(), p.Counters())
}

// EndOp implements obs.Spanner: it closes the innermost operator span.
func (p *Process) EndOp() {
	p.os.obs.EndOp(p.CPU, p.Now(), p.Counters())
}
