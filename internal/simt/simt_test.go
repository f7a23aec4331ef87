package simt

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestLaunchVectorAdd(t *testing.T) {
	d := NewDevice(4)
	n := 1000
	a := make([]float32, n)
	b := make([]float32, n)
	c := make([]float32, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = float32(i), float32(2*i)
	}
	d.Launch1D(n, 128, PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		i := th.GlobalID()
		if i < n {
			c[i] = a[i] + b[i]
		}
	}})
	for i := 0; i < n; i++ {
		if c[i] != float32(3*i) {
			t.Fatalf("c[%d] = %g, want %g", i, c[i], float32(3*i))
		}
	}
}

func TestLaunchZeroIsNoop(t *testing.T) {
	d := NewDevice(2)
	called := false
	d.Launch(0, 32, PhaseFunc{Phases: 1, F: func(int, *Thread) { called = true }})
	d.Launch(4, 0, PhaseFunc{Phases: 1, F: func(int, *Thread) { called = true }})
	d.Launch1D(0, 32, PhaseFunc{Phases: 1, F: func(int, *Thread) { called = true }})
	if called {
		t.Error("kernel ran with an empty launch")
	}
}

func TestLaunchHistogramAtomics(t *testing.T) {
	d := NewDevice(8)
	n := 20000
	bins := make([]uint32, 16)
	d.Launch1D(n, 64, PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		i := th.GlobalID()
		if i < n {
			AtomicAddUint32(bins, i%16, 1)
		}
	}})
	var total uint32
	for _, b := range bins {
		total += b
	}
	if total != uint32(n) {
		t.Fatalf("histogram total = %d, want %d", total, n)
	}
	if bins[0] != uint32((n+15)/16) {
		t.Errorf("bins[0] = %d, want %d", bins[0], (n+15)/16)
	}
}

func TestFloat32AtomicAdd(t *testing.T) {
	d := NewDevice(8)
	n := 10000
	bits := make([]uint32, 1) // accumulator at index 0, initially +0.0
	d.Launch1D(n, 32, PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		if th.GlobalID() < n {
			AtomicAddFloat32Bits(bits, 0, 1.0)
		}
	}})
	got := math.Float32frombits(bits[0])
	if got != float32(n) {
		t.Fatalf("atomic float32 sum = %g, want %d", got, n)
	}
}

func TestFloat64AtomicAdd(t *testing.T) {
	d := NewDevice(8)
	n := 10000
	bits := make([]uint64, 1)
	d.Launch1D(n, 32, PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		if th.GlobalID() < n {
			AtomicAddFloat64Bits(bits, 0, 0.5)
		}
	}})
	got := math.Float64frombits(bits[0])
	if got != float64(n)/2 {
		t.Fatalf("atomic float64 sum = %g, want %g", got, float64(n)/2)
	}
}

func TestAtomicCASSemantics(t *testing.T) {
	p := []uint32{5}
	if got := AtomicCASUint32(p, 0, 7, 9); got != 5 {
		t.Errorf("CAS mismatch returned %d, want 5", got)
	}
	if p[0] != 5 {
		t.Errorf("CAS mismatch modified value to %d", p[0])
	}
	if got := AtomicCASUint32(p, 0, 5, 9); got != 5 {
		t.Errorf("CAS match returned %d, want old value 5", got)
	}
	if p[0] != 9 {
		t.Errorf("CAS match stored %d, want 9", p[0])
	}
}

func TestAtomicMinMax(t *testing.T) {
	p := []uint32{10}
	AtomicMinUint32(p, 0, 3)
	if p[0] != 3 {
		t.Errorf("min: got %d, want 3", p[0])
	}
	AtomicMinUint32(p, 0, 8)
	if p[0] != 3 {
		t.Errorf("min no-op: got %d, want 3", p[0])
	}
	AtomicMaxUint32(p, 0, 11)
	if p[0] != 11 {
		t.Errorf("max: got %d, want 11", p[0])
	}
	AtomicMaxUint32(p, 0, 2)
	if p[0] != 11 {
		t.Errorf("max no-op: got %d, want 11", p[0])
	}
}

// TestLockstepSwap is the heart of the package: two lanes in one block that
// read each other's cell in phase 0 and write it back in phase 1 must BOTH
// observe the other's pre-phase value — producing a swap, exactly the
// community-swap mechanism of the paper (§4.1).
func TestLockstepSwap(t *testing.T) {
	d := NewDevice(1)
	vals := []uint32{100, 200}
	read := make([]uint32, 2)
	d.Launch(1, 2, PhaseFunc{Phases: 2, F: func(p int, th *Thread) {
		i := th.Lane
		partner := 1 - i
		switch p {
		case 0:
			read[i] = vals[partner]
		case 1:
			vals[i] = read[i]
		}
	}})
	if vals[0] != 200 || vals[1] != 100 {
		t.Fatalf("lockstep swap failed: vals = %v, want [200 100]", vals)
	}
}

// TestLockstepSwapWholeBlock checks the same property across warp
// boundaries: phase boundaries synchronize the entire block.
func TestLockstepSwapWholeBlock(t *testing.T) {
	d := NewDevice(2)
	n := 128 // 4 warps
	vals := make([]uint32, n)
	read := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	d.Launch(1, n, PhaseFunc{Phases: 2, F: func(p int, th *Thread) {
		i := th.Lane
		partner := n - 1 - i
		switch p {
		case 0:
			read[i] = vals[partner]
		case 1:
			vals[i] = read[i]
		}
	}})
	for i := range vals {
		if vals[i] != uint32(n-1-i) {
			t.Fatalf("vals[%d] = %d, want %d (block-wide lockstep broken)", i, vals[i], n-1-i)
		}
	}
}

func TestBlockToSMAssignment(t *testing.T) {
	d := NewDevice(4)
	grid := 37
	sm := make([]int32, grid)
	d.Launch(grid, 1, PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		sm[th.Block] = int32(th.SM)
	}})
	for b := 0; b < grid; b++ {
		if int(sm[b]) != b%4 {
			t.Errorf("block %d ran on SM %d, want %d", b, sm[b], b%4)
		}
	}
}

func TestSharedMemoryBlockSum(t *testing.T) {
	d := NewDevice(4)
	grid, blockDim := 8, 64
	out := make([]uint64, grid)
	k := SharedPhaseFunc{
		Words: 1,
		PhaseFunc: PhaseFunc{Phases: 2, F: func(p int, th *Thread) {
			switch p {
			case 0:
				SharedAtomicAddUint64(th.Shared, 0, uint64(th.Lane))
			case 1:
				if th.Lane == 0 {
					out[th.Block] = th.Shared[0]
				}
			}
		}},
	}
	d.Launch(grid, blockDim, k)
	want := uint64(blockDim * (blockDim - 1) / 2)
	for b := 0; b < grid; b++ {
		if out[b] != want {
			t.Errorf("block %d shared sum = %d, want %d", b, out[b], want)
		}
	}
}

// TestSharedMemoryZeroedPerBlock ensures a block never sees a previous
// block's shared memory contents.
func TestSharedMemoryZeroedPerBlock(t *testing.T) {
	d := NewDevice(1) // one SM runs all blocks back to back, reusing the arena
	grid := 16
	var dirty atomic.Int32
	k := SharedPhaseFunc{
		Words: 4,
		PhaseFunc: PhaseFunc{Phases: 2, F: func(p int, th *Thread) {
			switch p {
			case 0:
				if th.Lane == 0 {
					for _, w := range th.Shared {
						if w != 0 {
							dirty.Add(1)
						}
					}
				}
			case 1:
				th.Shared[th.Lane%4] = 0xDEAD
			}
		}},
	}
	d.Launch(grid, 8, k)
	if dirty.Load() != 0 {
		t.Errorf("%d blocks observed dirty shared memory", dirty.Load())
	}
}

func TestThreadCoordinates(t *testing.T) {
	d := NewDevice(3)
	grid, blockDim := 5, 96
	seen := make([]int32, grid*blockDim)
	d.Launch(grid, blockDim, PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		if th.BlockDim != blockDim || th.GridDim != grid {
			t.Errorf("bad dims %d/%d", th.BlockDim, th.GridDim)
		}
		if th.Warp() != th.Lane/WarpSize {
			t.Errorf("bad warp %d for lane %d", th.Warp(), th.Lane)
		}
		atomic.AddInt32(&seen[th.GlobalID()], 1)
	}})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("thread %d ran %d times, want 1", i, s)
		}
	}
}

func TestDeviceStats(t *testing.T) {
	d := NewDevice(2)
	d.Launch(6, 32, PhaseFunc{Phases: 3, F: func(int, *Thread) {}})
	if d.KernelsRun.Load() != 1 {
		t.Errorf("KernelsRun = %d", d.KernelsRun.Load())
	}
	if d.BlocksRun.Load() != 6 {
		t.Errorf("BlocksRun = %d", d.BlocksRun.Load())
	}
	if d.PhasesRun.Load() != 18 {
		t.Errorf("PhasesRun = %d", d.PhasesRun.Load())
	}
	if d.LanesRun.Load() != 6*32*3 {
		t.Errorf("LanesRun = %d", d.LanesRun.Load())
	}
}

func TestMemoryBudget(t *testing.T) {
	d := NewDevice(1)
	d.MemBudget = 1000
	if err := d.Alloc(600); err != nil {
		t.Fatalf("first alloc: %v", err)
	}
	if err := d.Alloc(600); err == nil {
		t.Fatal("over-budget alloc succeeded")
	}
	d.Free(600)
	if err := d.Alloc(900); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if d.MemUsed() != 900 {
		t.Errorf("MemUsed = %d, want 900", d.MemUsed())
	}
	if err := d.Alloc(-5); err == nil {
		t.Error("negative alloc accepted")
	}
}

func TestMemoryUnlimitedByDefault(t *testing.T) {
	d := NewDevice(1)
	if err := d.Alloc(1 << 40); err != nil {
		t.Fatalf("unlimited device refused allocation: %v", err)
	}
}

func TestNewDeviceDefaults(t *testing.T) {
	d := NewDevice(0)
	if d.NumSMs < 1 {
		t.Errorf("NumSMs = %d", d.NumSMs)
	}
}

// boundedKernel is a PhaseFunc whose blocks bound their lanes.
type boundedKernel struct {
	PhaseFunc
	bounds []int
}

func (k boundedKernel) BlockLanes(b int) int { return k.bounds[b] }

// TestBlockLanesBound checks that a BlockLanesKernel block runs only its
// bounded lanes, rounded up to a whole warp, in every phase: a bound of 0
// runs no lanes but the block still counts, a bound past blockDim clamps to
// blockDim, phase barriers still hold among the dispatched lanes, and the
// lane counters (LanesRun, the SMSpan lane count) equal the lanes dispatched.
func TestBlockLanesBound(t *testing.T) {
	const blockDim, phases = 128, 3
	bounds := []int{0, 1, 33, 128, 500}
	want := []int{0, 32, 64, 128, 128}
	grid := len(bounds)
	runs := make([]int32, grid*blockDim*phases)
	vals := make([]int, grid*blockDim)
	read := make([]int, grid*blockDim)
	prof := &captureProf{}
	d := NewDevice(2)
	d.Prof = prof
	d.Launch(grid, blockDim, boundedKernel{bounds: bounds, PhaseFunc: PhaseFunc{Phases: phases, F: func(p int, th *Thread) {
		if th.Lanes != want[th.Block] {
			t.Errorf("block %d: Thread.Lanes = %d, want %d", th.Block, th.Lanes, want[th.Block])
		}
		atomic.AddInt32(&runs[(th.GlobalID())*phases+p], 1)
		// Block-wide reversal among the dispatched lanes: every lane must
		// read its partner's phase-0 write, including from later warps.
		base, partner := th.Block*blockDim, th.Lanes-1-th.Lane
		switch p {
		case 0:
			vals[base+th.Lane] = th.Lane
		case 1:
			read[base+th.Lane] = vals[base+partner]
		case 2:
			vals[base+th.Lane] = read[base+th.Lane]
		}
	}}})

	var lanes int64
	for b := 0; b < grid; b++ {
		for lane := 0; lane < blockDim; lane++ {
			wantRuns := int32(0)
			if lane < want[b] {
				wantRuns = 1
				if got := vals[b*blockDim+lane]; got != want[b]-1-lane {
					t.Errorf("block %d lane %d: reversed value %d, want %d (phase barrier broken)", b, lane, got, want[b]-1-lane)
				}
			}
			for p := 0; p < phases; p++ {
				if got := runs[(b*blockDim+lane)*phases+p]; got != wantRuns {
					t.Fatalf("block %d lane %d phase %d ran %d times, want %d", b, lane, p, got, wantRuns)
				}
			}
		}
		lanes += int64(want[b] * phases)
	}
	if got := d.BlocksRun.Load(); got != int64(grid) {
		t.Errorf("BlocksRun = %d, want %d", got, grid)
	}
	if got := d.PhasesRun.Load(); got != int64(grid*phases) {
		t.Errorf("PhasesRun = %d, want %d", got, grid*phases)
	}
	if got := d.LanesRun.Load(); got != lanes {
		t.Errorf("LanesRun = %d, want %d", got, lanes)
	}
	var spanBlocks, spanLanes int64
	for _, s := range prof.spans {
		spanBlocks += s.blocks
		spanLanes += s.lanes
	}
	if spanBlocks != int64(grid) || spanLanes != lanes {
		t.Errorf("SMSpan blocks/lanes = %d/%d, want %d/%d", spanBlocks, spanLanes, grid, lanes)
	}
}
