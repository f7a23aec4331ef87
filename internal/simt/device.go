// Package simt is a software model of the SIMT execution hardware the paper
// runs on (an NVIDIA A100): streaming multiprocessors (SMs), thread blocks,
// warps of 32 lanes executing in lockstep, block-level synchronization,
// shared memory, and global-memory atomics.
//
// # Execution model
//
// Kernels are expressed as a sequence of phases. Within a block, the engine
// runs phase p for every lane — warp by warp, in lane order — before any lane
// starts phase p+1. Phase boundaries therefore behave exactly like
// __syncthreads(), and within a phase all lanes of a warp observe memory as
// of the previous boundary's completion, i.e. lockstep. This is the property
// that makes label swaps between symmetric vertices deterministic on a GPU
// (both read each other's old label, then both write), and it is reproduced
// here by construction, not by accident of goroutine scheduling.
//
// A kernel may bound the lanes dispatched per block (BlockLanesKernel): a
// block then runs lanes [0, n) in every phase, n rounded up to a whole warp,
// and the lanes beyond n never run — the simulator's analogue of hardware
// lanes that find no work and sit idle at no cost. Lockstep holds unchanged
// for the lanes that do run.
//
// Blocks are assigned to SMs statically — block b runs on SM b mod NumSMs,
// mirroring the ID-based SM assignment the paper calls out — and the SMs run
// concurrently as goroutines, so cross-block interleaving is asynchronous,
// as on real hardware. Global-memory atomics (see atomics.go) are the only
// safe cross-block communication, exactly as in CUDA.
package simt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nulpa/internal/trace"
)

// WarpSize is the number of lanes that execute in lockstep, matching NVIDIA
// hardware.
const WarpSize = 32

// Device models one GPU: a set of SMs that execute thread blocks, and a
// global-memory capacity used to reproduce the paper's out-of-memory
// failures (ν-LPA cannot process sk-2005 on an 80 GB A100).
type Device struct {
	// NumSMs is the number of concurrently executing streaming
	// multiprocessors. The A100 has 108; the default here is the host
	// parallelism, which plays the same architectural role.
	NumSMs int
	// MemBudget is the simulated global-memory capacity in bytes;
	// 0 means unlimited.
	MemBudget int64

	// Prof, when non-nil, receives kernel-launch and per-SM execution
	// events (see Profiler). A nil Prof costs one pointer test per launch
	// and nothing per phase or lane.
	Prof Profiler

	// Faults, when non-nil, is consulted once per LaunchKernel call and may
	// fail, stall, or livelock the launch (see fault.go). Launch and
	// Launch1D bypass it — they cannot report an error.
	Faults FaultInjector

	memUsed int64 // atomic

	// Launch statistics, updated atomically; useful in tests and reports.
	// LanesRun counts lane executions actually dispatched — one per lane
	// per phase, excluding the lanes a BlockLanesKernel bounds away.
	BlocksRun  atomic.Int64
	PhasesRun  atomic.Int64
	LanesRun   atomic.Int64
	KernelsRun atomic.Int64
}

// Profiler receives execution events from a Device. KernelBegin is called
// once per launch from the launching goroutine and returns a launch id;
// SMSpan is called once per SM goroutine as it drains its blocks — possibly
// concurrently, so implementations must be safe for concurrent use — and
// KernelEnd is called after every block has finished. Events carry wall
// times so a profiler can reconstruct the per-SM execution timeline.
type Profiler interface {
	// KernelBegin announces a launch of kernel on a grid×blockDim grid
	// executed by sms SM goroutines, returning an id for the later calls.
	KernelBegin(kernel string, grid, blockDim, sms int) int
	// SMSpan reports one SM's busy span: blocks executed, phase barriers
	// crossed and lane executions dispatched between start and end.
	SMSpan(launch, sm int, start, end time.Time, blocks, phases, lanes int64)
	// KernelEnd reports the launch's overall wall span
	// (cudaDeviceSynchronize returning).
	KernelEnd(launch int, start, end time.Time)
}

// NamedKernel is implemented by kernels that report a stable name to
// profilers; others are named by their Go type.
type NamedKernel interface {
	KernelName() string
}

// KernelName returns the profiling name of k.
func KernelName(k Kernel) string {
	if n, ok := k.(NamedKernel); ok {
		return n.KernelName()
	}
	return fmt.Sprintf("%T", k)
}

// NewDevice returns a Device with n SMs (n <= 0 selects GOMAXPROCS) and no
// memory budget.
func NewDevice(n int) *Device {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Device{NumSMs: n}
}

// ErrOutOfMemory is returned by Alloc when a reservation would exceed the
// device's memory budget.
var ErrOutOfMemory = fmt.Errorf("simt: device out of memory")

// Alloc reserves bytes of simulated device memory. It fails with
// ErrOutOfMemory when the budget would be exceeded. Allocation is advisory —
// the engine does not own the backing Go slices — but lets higher layers
// reproduce the paper's OOM behaviour deterministically.
func (d *Device) Alloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("simt: negative allocation %d", bytes)
	}
	for {
		used := atomic.LoadInt64(&d.memUsed)
		if d.MemBudget > 0 && used+bytes > d.MemBudget {
			return fmt.Errorf("%w: want %d bytes, %d of %d in use",
				ErrOutOfMemory, bytes, used, d.MemBudget)
		}
		if atomic.CompareAndSwapInt64(&d.memUsed, used, used+bytes) {
			return nil
		}
	}
}

// Free releases bytes of simulated device memory.
func (d *Device) Free(bytes int64) {
	if n := atomic.AddInt64(&d.memUsed, -bytes); n < 0 {
		atomic.StoreInt64(&d.memUsed, 0)
	}
}

// MemUsed reports the bytes currently reserved.
func (d *Device) MemUsed() int64 { return atomic.LoadInt64(&d.memUsed) }

// Kernel is a lockstep phase kernel. The engine calls Phase(p, t) for every
// lane of a block before any lane proceeds to phase p+1; see the package
// comment for the exact semantics. Per-lane state that must survive across
// phases belongs in arrays indexed by t.GlobalID(), which is how registers
// spilled to local memory behave on hardware.
type Kernel interface {
	// NumPhases returns how many lockstep phases the kernel has. It is
	// called once per launch.
	NumPhases() int
	// Phase executes phase p for the lane described by t.
	Phase(p int, t *Thread)
}

// SharedKernel is implemented by kernels that want block-shared memory. The
// engine zeroes the arena before each block starts.
type SharedKernel interface {
	Kernel
	// SharedUint64s returns the per-block shared-memory arena size in
	// 64-bit words.
	SharedUint64s() int
}

// BlockLanesKernel is implemented by kernels whose blocks need fewer lanes
// than blockDim. Block b then dispatches lanes [0, n) in every phase, where
// n is min(blockDim, BlockLanes(b)) rounded up to a whole warp (0 when
// BlockLanes(b) <= 0); lanes at or beyond n never run for that block, so a
// kernel must not rely on them for any side effect. Strides and GlobalID
// still use BlockDim. BlockLanes is called once per block per launch.
type BlockLanesKernel interface {
	Kernel
	BlockLanes(block int) int
}

// dispatchLanes returns the lanes a block runs under a lane bound: the bound
// rounded up to a whole warp, clamped to [0, blockDim].
func dispatchLanes(bound, blockDim int) int {
	if bound <= 0 {
		return 0
	}
	n := (bound + WarpSize - 1) / WarpSize * WarpSize
	if n > blockDim {
		return blockDim
	}
	return n
}

// Thread describes one lane's coordinates during a phase call.
type Thread struct {
	Block    int // block index within the grid
	Lane     int // thread index within the block (threadIdx.x)
	BlockDim int // threads per block
	Lanes    int // lanes dispatched in this block: BlockDim unless bounded
	GridDim  int // blocks in the grid
	SM       int // streaming multiprocessor executing the block
	Shared   []uint64
}

// GlobalID returns the global thread index: Block*BlockDim + Lane.
func (t *Thread) GlobalID() int { return t.Block*t.BlockDim + t.Lane }

// Warp returns the warp index of the lane within its block.
func (t *Thread) Warp() int { return t.Lane / WarpSize }

// Launch runs kernel k on a grid of gridDim blocks of blockDim threads and
// blocks until every thread block has finished (cudaDeviceSynchronize
// semantics). gridDim or blockDim of zero is a no-op. Launch is the
// fault-free entry point: it cannot be canceled and bypasses the Faults
// injector; backends that must survive faults use LaunchKernel.
func (d *Device) Launch(gridDim, blockDim int, k Kernel) {
	d.launch(nil, gridDim, blockDim, k, stallSpec{sm: -1})
}

// LaunchKernel runs kernel k like Launch, but under ctx and the device's
// fault injector. It returns ctx.Err() when the context is canceled or its
// deadline expires — cancellation is observed at block granularity, so a
// launch in flight stops within one block's worth of work per SM — and
// ErrKernelLaunch / ErrLivelock when the injector fails the launch. The
// kernel's memory effects are undefined after a non-nil error (blocks may
// have partially executed); callers recover by rolling back to their last
// checkpoint, as the nulpa simt backend does.
func (d *Device) LaunchKernel(ctx context.Context, gridDim, blockDim int, k Kernel) error {
	if gridDim <= 0 || blockDim <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Kernel-launch span: the leaf of the job → detect → iteration tree. The
	// FromContext guard keeps the untraced path allocation-free — the name
	// concatenation below only happens once a parent span exists.
	var ks *trace.Span
	if trace.FromContext(ctx) != nil {
		_, ks = trace.Child(ctx, "kernel:"+KernelName(k))
		ks.SetInt("grid", int64(gridDim))
		ks.SetInt("blockDim", int64(blockDim))
	}
	finish := func(err error) error {
		if err != nil {
			ks.SetString("error", err.Error())
			ks.SetBool("canceled", errors.Is(err, context.Canceled) ||
				errors.Is(err, context.DeadlineExceeded))
		}
		ks.End()
		return err
	}
	if d.Faults != nil {
		// The launch ordinal is read before launch() increments it, so the
		// injector sees a 0-based, strictly increasing sequence per device.
		switch f := d.Faults.LaunchFault(KernelName(k), d.KernelsRun.Load()); f.Kind {
		case FaultLaunchFail:
			d.KernelsRun.Add(1)
			ks.Event("fault:kernel-launch-fail", nil)
			return finish(fmt.Errorf("%w: %s (%d×%d)", ErrKernelLaunch, KernelName(k), gridDim, blockDim))
		case FaultLivelock:
			d.KernelsRun.Add(1)
			casRetries.Add(f.Spins)
			if ks != nil {
				ks.Event("fault:livelock", map[string]any{"spins": f.Spins})
			}
			return finish(fmt.Errorf("%w: %s after %d CAS retries", ErrLivelock, KernelName(k), f.Spins))
		case FaultStall:
			// Stall one SM (chosen by launch ordinal) before it drains its
			// blocks — preemption or throttling. The kernel still completes
			// correctly; only the deadline above can turn this into an error.
			stall := stallSpec{sm: int(d.KernelsRun.Load()) % d.NumSMs, d: f.Stall}
			if ks != nil {
				ks.Event("fault:stall", map[string]any{
					"sm": int64(stall.sm), "stallUs": stall.d.Microseconds(),
				})
			}
			d.launch(ctx, gridDim, blockDim, k, stall)
			return finish(ctx.Err())
		}
	}
	d.launch(ctx, gridDim, blockDim, k, stallSpec{sm: -1})
	return finish(ctx.Err())
}

// stallSpec tells launch to delay one SM; sm < 0 means no stall.
type stallSpec struct {
	sm int
	d  time.Duration
}

// launch is the shared body of Launch and LaunchKernel. ctx may be nil (no
// cancellation).
func (d *Device) launch(ctx context.Context, gridDim, blockDim int, k Kernel, stall stallSpec) {
	if gridDim <= 0 || blockDim <= 0 {
		return
	}
	d.KernelsRun.Add(1)
	phases := k.NumPhases()
	sharedWords := 0
	if sk, ok := k.(SharedKernel); ok {
		sharedWords = sk.SharedUint64s()
	}
	bk, bounded := k.(BlockLanesKernel)
	nSM := d.NumSMs
	if nSM > gridDim {
		nSM = gridDim
	}
	prof := d.Prof
	var launch int
	var kStart time.Time
	if prof != nil {
		launch = prof.KernelBegin(KernelName(k), gridDim, blockDim, nSM)
		kStart = time.Now()
	}
	// Cancellation is observed at block granularity: a watcher goroutine
	// flips an atomic flag the SM loops poll between blocks, so the hot path
	// costs one atomic load per block and nothing per phase or lane.
	var canceled atomic.Bool
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-done:
				canceled.Store(true)
			case <-stopWatch:
			}
		}()
	}
	var wg sync.WaitGroup
	for sm := 0; sm < nSM; sm++ {
		wg.Add(1)
		go func(sm int) {
			defer wg.Done()
			if sm == stall.sm && stall.d > 0 {
				// Injected stall: this SM starts late. Cut short by ctx so a
				// stalled kernel still honours cancellation promptly.
				timer := time.NewTimer(stall.d)
				select {
				case <-timer.C:
				case <-done:
					timer.Stop()
				}
			}
			var smStart time.Time
			if prof != nil {
				smStart = time.Now()
			}
			var shared []uint64
			if sharedWords > 0 {
				shared = make([]uint64, sharedWords)
			}
			t := Thread{BlockDim: blockDim, GridDim: gridDim, SM: sm, Shared: shared}
			var blocks, lanes, phasesRun int64
			for b := sm; b < gridDim; b += d.NumSMs {
				if canceled.Load() {
					break
				}
				for i := range shared {
					shared[i] = 0
				}
				n := blockDim
				if bounded {
					n = dispatchLanes(bk.BlockLanes(b), blockDim)
				}
				t.Block, t.Lanes = b, n
				for p := 0; p < phases; p++ {
					for lane := 0; lane < n; lane++ {
						t.Lane = lane
						k.Phase(p, &t)
					}
					phasesRun++
					lanes += int64(n)
				}
				blocks++
			}
			d.BlocksRun.Add(blocks)
			d.PhasesRun.Add(phasesRun)
			d.LanesRun.Add(lanes)
			if prof != nil {
				prof.SMSpan(launch, sm, smStart, time.Now(), blocks, phasesRun, lanes)
			}
		}(sm)
	}
	wg.Wait()
	if prof != nil {
		// Work counters drain before KernelEnd so profilers that drop
		// launch state on end (MetricsProfiler) still see the kernel name.
		if wk, ok := k.(WorkReportingKernel); ok {
			if wp, ok := prof.(WorkProfiler); ok {
				ev, lf, hp, hc, av := wk.TakeWork()
				wp.KernelWork(launch, ev, lf, hp, hc, av)
			}
		}
		prof.KernelEnd(launch, kStart, time.Now())
	}
}

// Launch1D runs k with enough blocks of blockDim threads to cover total
// threads; lanes beyond total still run (as on hardware) and must bounds-
// check with GlobalID().
func (d *Device) Launch1D(total, blockDim int, k Kernel) {
	if total <= 0 {
		return
	}
	grid := (total + blockDim - 1) / blockDim
	d.Launch(grid, blockDim, k)
}

// LaunchKernel1D is Launch1D under ctx and the fault injector; see
// LaunchKernel.
func (d *Device) LaunchKernel1D(ctx context.Context, total, blockDim int, k Kernel) error {
	if total <= 0 {
		return nil
	}
	grid := (total + blockDim - 1) / blockDim
	return d.LaunchKernel(ctx, grid, blockDim, k)
}

// PhaseFunc adapts a function to a multi-phase Kernel.
type PhaseFunc struct {
	Phases int
	F      func(p int, t *Thread)
}

// NumPhases implements Kernel.
func (k PhaseFunc) NumPhases() int { return k.Phases }

// Phase implements Kernel.
func (k PhaseFunc) Phase(p int, t *Thread) { k.F(p, t) }

// SharedPhaseFunc adapts a function to a SharedKernel.
type SharedPhaseFunc struct {
	PhaseFunc
	Words int
}

// SharedUint64s implements SharedKernel.
func (k SharedPhaseFunc) SharedUint64s() int { return k.Words }
