// Package sim provides the deterministic multi-process execution kernel that
// underlies the machine simulators.
//
// Each simulated process runs as a goroutine, but at most one process
// executes at a time: the kernel always resumes the process with the smallest
// local clock and lets it run for a bounded quantum of simulated cycles
// before it must hand control back. This "min-clock quantum" discipline gives
// a deterministic, repeatable interleaving whose timing error is bounded by
// the quantum, which is the standard approach for execution-driven
// multiprocessor simulation (cf. RSIM, SimOS). Host parallelism lives a layer
// up, across independent simulations (see experiments.Env.MeasureAll), never
// inside one.
package sim

import (
	"errors"
	"fmt"
	"sync"
)

// Clock counts simulated CPU cycles.
type Clock uint64

// DefaultQuantum is the default number of cycles a process may run before
// yielding to the kernel. Smaller quanta tighten the interleaving accuracy at
// the cost of more goroutine handoffs.
const DefaultQuantum Clock = 20_000

// ErrKilled is delivered to processes that are still running when the kernel
// is shut down early.
var ErrKilled = errors.New("sim: process killed")

// ErrInterrupted is returned by Run when the kernel was stopped early via
// Interrupt. Test with errors.Is; the cause passed to Interrupt (if any) is
// wrapped alongside it.
var ErrInterrupted = errors.New("sim: run interrupted")

type yieldKind int

const (
	yieldQuantum yieldKind = iota // quantum expired, process wants to continue
	yieldDone                     // process body returned
	yieldPanic                    // process body panicked
)

type yieldMsg struct {
	proc *Proc
	kind yieldKind
	err  error
}

// Proc is the kernel-side handle for one simulated process. All methods must
// be called from the process's own goroutine (the function passed to Spawn),
// never from outside.
type Proc struct {
	id     int
	kernel *Kernel

	clock      Clock
	quantumEnd Clock

	resume chan Clock // kernel -> proc: new quantum end
	killed bool

	// Hooks let higher layers observe scheduling points.
	// OnYield is invoked (in the process goroutine) just before the process
	// hands control back to the kernel because its quantum expired.
	OnYield func(now Clock)
	// OnExit is invoked (in the process goroutine) after the process body
	// returns normally, with the final clock — the last scheduling point of
	// the process's life. It is not called for killed or panicking processes.
	OnExit func(now Clock)
}

// Now returns the process's local clock in cycles.
func (p *Proc) Now() Clock { return p.clock }

// Advance adds cycles to the local clock and yields to the kernel if the
// quantum has expired.
func (p *Proc) Advance(cycles Clock) {
	p.clock += cycles
	if p.clock >= p.quantumEnd {
		p.Yield()
	}
}

// AdvanceTo moves the local clock forward to at least t. It is the primitive
// used to model waiting for an event that completes at a known simulated time.
// Advancing backwards is a no-op.
func (p *Proc) AdvanceTo(t Clock) {
	if t > p.clock {
		p.Advance(t - p.clock)
	}
}

// Yield unconditionally hands control back to the kernel, even if quantum
// remains. Use it before spinning on state owned by another process so the
// other process gets a chance to run.
func (p *Proc) Yield() {
	if p.killed {
		// Dying: the kernel closed our resume channel and killAll counts
		// exactly one event (runBody's) for this process. A deferred cleanup
		// that re-enters the simulation during the ErrKilled unwind — a lock
		// release simulating its own memory accesses — must not talk to the
		// scheduler: an extra event here would make killAll think the unwind
		// finished and release the next process into a concurrent unwind over
		// shared machine state. Let the cleanup run free of the quantum.
		return
	}
	if p.OnYield != nil {
		p.OnYield(p.clock)
	}
	p.kernel.events <- yieldMsg{proc: p, kind: yieldQuantum}
	p.block()
}

// block waits until the kernel grants a new quantum. If the kernel is shutting
// down it panics with ErrKilled, which unwinds the process goroutine; the
// wrapper in Spawn recovers it.
func (p *Proc) block() {
	end, ok := <-p.resume
	if !ok {
		p.killed = true
		panic(ErrKilled)
	}
	p.quantumEnd = end
}

// Kernel schedules a set of simulated processes deterministically.
type Kernel struct {
	quantum Clock
	procs   []*Proc
	bodies  []func(*Proc)
	events  chan yieldMsg
	started bool

	// Interruption. stop is closed (once) by Interrupt; the scheduler checks
	// it before every quantum grant, so a run aborts within one quantum of
	// the request. These are the only kernel fields touched from outside the
	// scheduling goroutine.
	stop      chan struct{}
	stopOnce  sync.Once
	causeMu   sync.Mutex
	stopCause error
}

// NewKernel returns a kernel with the given scheduling quantum in cycles.
// A quantum of 0 selects DefaultQuantum.
func NewKernel(quantum Clock) *Kernel {
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	return &Kernel{
		quantum: quantum,
		events:  make(chan yieldMsg),
		stop:    make(chan struct{}),
	}
}

// Interrupt requests that Run abort at the next scheduling-quantum boundary:
// every live process is killed (its goroutine unwinds via ErrKilled) and Run
// returns an error satisfying errors.Is(err, ErrInterrupted), wrapping cause
// when non-nil. Unlike every other Kernel method, Interrupt is safe to call
// from any goroutine, at any time (before, during or after Run), and is
// idempotent — only the first call's cause is kept.
func (k *Kernel) Interrupt(cause error) {
	k.stopOnce.Do(func() {
		k.causeMu.Lock()
		k.stopCause = cause
		k.causeMu.Unlock()
		close(k.stop)
	})
}

// interruptErr builds Run's return value after a stop request.
func (k *Kernel) interruptErr() error {
	k.causeMu.Lock()
	defer k.causeMu.Unlock()
	if k.stopCause != nil {
		return fmt.Errorf("%w: %w", ErrInterrupted, k.stopCause)
	}
	return ErrInterrupted
}

// Quantum reports the scheduling quantum in cycles.
func (k *Kernel) Quantum() Clock { return k.quantum }

// Spawn registers a process whose body is fn. Processes must all be spawned
// before Run is called. The returned Proc is handed to fn when the kernel
// starts; callers may also keep it to inspect the final clock after Run.
func (k *Kernel) Spawn(fn func(*Proc)) *Proc {
	if k.started {
		panic("sim: Spawn after Run")
	}
	p := &Proc{
		id:     len(k.procs),
		kernel: k,
		resume: make(chan Clock),
	}
	k.procs = append(k.procs, p)
	k.bodies = append(k.bodies, fn)
	return p
}

// Run executes all spawned processes to completion and returns the first
// process panic as an error (processes that complete normally return nil).
// Run is deterministic: given the same spawn order and process behaviour it
// produces the same interleaving every time, regardless of GOMAXPROCS or host
// scheduling.
func (k *Kernel) Run() error {
	if k.started {
		return errors.New("sim: Run called twice")
	}
	k.started = true
	if len(k.procs) == 0 {
		return nil
	}

	for i, p := range k.procs {
		go k.runBody(p, k.bodies[i])
	}
	return k.schedule()
}

// schedule is the min-clock quantum scheduler. Process bookkeeping is O(1)
// per scheduling event — parked processes live in a slice whose order is
// irrelevant (the pick is always the unique (clock, ID) minimum, found by a
// linear scan), so yields append, exits are uncounted, and no per-iteration
// map or sort is needed.
func (k *Kernel) schedule() error {
	// runnable holds every live process, each parked on its resume channel —
	// the one safe point to honour an interrupt by killing them all.
	runnable := make([]*Proc, len(k.procs))
	copy(runnable, k.procs)

	var firstErr error
	for len(runnable) > 0 {
		select {
		case <-k.stop:
			k.killAll(runnable)
			if firstErr == nil {
				firstErr = k.interruptErr()
			}
			return firstErr
		default:
		}
		// Pick the runnable process with the minimum clock (ties by ID). A
		// linear scan beats re-sorting: the slice is small (≤ CPUs) and the
		// minimum under the (clock, ID) total order is unique, so the chosen
		// schedule is identical to the previous sort-based implementation.
		mi := 0
		for i := 1; i < len(runnable); i++ {
			if pi, pm := runnable[i], runnable[mi]; pi.clock < pm.clock ||
				(pi.clock == pm.clock && pi.id < pm.id) {
				mi = i
			}
		}
		next := runnable[mi]
		last := len(runnable) - 1
		runnable[mi] = runnable[last]
		runnable = runnable[:last]

		next.resume <- next.clock + k.quantum
		msg := <-k.events
		switch msg.kind {
		case yieldQuantum:
			runnable = append(runnable, msg.proc)
		case yieldDone:
			// Already removed from runnable; nothing to do.
		case yieldPanic:
			if firstErr == nil {
				firstErr = msg.err
			}
			k.killAll(runnable)
			runnable = runnable[:0]
		}
	}
	return firstErr
}

// killAll closes the resume channels of the given parked processes, unblocking
// each with ErrKilled, and drains their unwind notifications.
func (k *Kernel) killAll(parked []*Proc) {
	for _, p := range parked {
		close(p.resume)
		<-k.events // the ErrKilled unwind notification
	}
}

func (k *Kernel) runBody(p *Proc, fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if p.killed {
				k.events <- yieldMsg{proc: p, kind: yieldDone}
				return
			}
			k.events <- yieldMsg{proc: p, kind: yieldPanic, err: fmt.Errorf("sim: process %d panicked: %v", p.id, r)}
			return
		}
		k.events <- yieldMsg{proc: p, kind: yieldDone}
	}()
	p.block() // wait for the first quantum grant
	fn(p)
	if p.OnExit != nil {
		p.OnExit(p.clock)
	}
}
