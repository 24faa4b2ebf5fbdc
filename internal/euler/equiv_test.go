package euler

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/platform"
)

// reconstructFace is the face-by-face reference for States: it gathers
// the four cells around face f along dir at transverse index t as whole
// state vectors and writes both reconstructed states.
func reconstructFace(b *Block, dir Dir, f, t int, qL, qR *EdgeField) {
	var um2, um1, u0, up1 Cons
	if dir == X {
		um2, um1 = b.At(f-2, t), b.At(f-1, t)
		u0, up1 = b.At(f, t), b.At(f+1, t)
	} else {
		um2, um1 = b.At(t, f-2), b.At(t, f-1)
		u0, up1 = b.At(t, f), b.At(t, f+1)
	}
	var l, r Cons
	for v := 0; v < NVars; v++ {
		l[v] = um1[v] + 0.5*minmod(um1[v]-um2[v], u0[v]-um1[v])
		r[v] = u0[v] - 0.5*minmod(u0[v]-um1[v], up1[v]-u0[v])
	}
	qL.setFace(f, t, l)
	qR.setFace(f, t, r)
}

// refStates is the reference States: faces in row order for X and column
// order for Y, then the same charges as States.
func refStates(proc *platform.Proc, b *Block, dir Dir, qL, qR *EdgeField) {
	if dir == X {
		for j := 0; j < b.Ny; j++ {
			for f := 0; f <= b.Nx; f++ {
				reconstructFace(b, dir, f, j, qL, qR)
			}
		}
	} else {
		for i := 0; i < b.Nx; i++ {
			for f := 0; f <= b.Ny; f++ {
				reconstructFace(b, dir, f, i, qL, qR)
			}
		}
	}
	chargeStatesPass(proc, b, dir, qL, qR)
	if proc != nil {
		proc.ChargeFlops(statesFlops * b.Cells())
	}
}

// refInitBlock is the reference InitBlock: StateAt and SetPrim per cell.
func refInitBlock(pr ShockInterfaceProblem, b *Block, x0, y0, dx, dy float64) {
	for j := -b.Ng; j < b.Ny+b.Ng; j++ {
		for i := -b.Ng; i < b.Nx+b.Ng; i++ {
			x := x0 + (float64(i)+0.5)*dx
			y := y0 + (float64(j)+0.5)*dy
			b.SetPrim(i, j, pr.StateAt(x, y))
		}
	}
}

// equivShapes returns random non-square block shapes plus the degenerate
// 1xN and Nx1 strips.
func equivShapes(rng *rand.Rand) [][2]int {
	shapes := [][2]int{{1, 1}, {1, 7}, {9, 1}, {1, 33}, {40, 1}}
	for len(shapes) < 25 {
		nx, ny := 1+rng.Intn(24), 1+rng.Intn(24)
		if nx != ny {
			shapes = append(shapes, [2]int{nx, ny})
		}
	}
	return shapes
}

// equivProc returns a simulated processor with a small cache, so strided
// passes over the test blocks miss.
func equivProc() *platform.Proc {
	return platform.NewProc(0, platform.XeonModel(), cache.Config{SizeBytes: 2048, LineBytes: 64, Assoc: 4}, 1)
}

// randomPlanes fills every plane with values drawn from a small pool (so
// equal neighbours hit minmod's zero branch) or from a wide range of both
// signs, including signed zeros.
func randomPlanes(rng *rand.Rand, planes *[NVars][]float64) {
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, 1e-300}
	for v := range planes {
		for k := range planes[v] {
			if rng.Intn(3) == 0 {
				planes[v][k] = pool[rng.Intn(len(pool))]
			} else {
				planes[v][k] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(8)-4))
			}
		}
	}
}

func requireSamePlanes(t *testing.T, what string, got, want *[NVars][]float64) {
	t.Helper()
	for v := range got {
		for k := range got[v] {
			if math.Float64bits(got[v][k]) != math.Float64bits(want[v][k]) {
				t.Fatalf("%s: plane %d element %d = %v, want %v", what, v, k, got[v][k], want[v][k])
			}
		}
	}
}

// TestStatesMatchesFaceReference requires States to give every face value
// bit for bit as the face-by-face reference does, and to leave the
// processor's clock and counters where the reference leaves them.
func TestStatesMatchesFaceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range equivShapes(rng) {
		for _, ng := range []int{2, 3} {
			for _, dir := range []Dir{X, Y} {
				nx, ny := shape[0], shape[1]
				pGot, pWant := equivProc(), equivProc()
				bGot, bWant := NewBlock(pGot, nx, ny, ng), NewBlock(pWant, nx, ny, ng)
				lGot, rGot := NewEdgeField(pGot, nx, ny, dir), NewEdgeField(pGot, nx, ny, dir)
				lWant, rWant := NewEdgeField(pWant, nx, ny, dir), NewEdgeField(pWant, nx, ny, dir)
				randomPlanes(rng, &bGot.U)
				bWant.CopyFrom(bGot)
				// Start the face fields from the same garbage, so a face the
				// new loop skipped would show.
				randomPlanes(rng, &lGot.Q)
				randomPlanes(rng, &rGot.Q)
				for v := 0; v < NVars; v++ {
					copy(lWant.Q[v], lGot.Q[v])
					copy(rWant.Q[v], rGot.Q[v])
				}

				States(pGot, bGot, dir, lGot, rGot)
				refStates(pWant, bWant, dir, lWant, rWant)

				what := func(side string) string {
					return fmt.Sprintf("%s dir %v %dx%d ghost %d", side, dir, nx, ny, ng)
				}
				requireSamePlanes(t, what("qL"), &lGot.Q, &lWant.Q)
				requireSamePlanes(t, what("qR"), &rGot.Q, &rWant.Q)
				requireSamePlanes(t, what("block"), &bGot.U, &bWant.U)
				if pGot.Now() != pWant.Now() || pGot.Counters() != pWant.Counters() {
					t.Fatalf("%s: clock %v counters %+v, want %v %+v", what("proc"),
						pGot.Now(), pGot.Counters(), pWant.Now(), pWant.Counters())
				}
			}
		}
	}
}

// TestInitBlockMatchesStateAt requires InitBlock to fill every cell,
// ghosts included, bit for bit as StateAt and SetPrim do, over random
// problems whose shock and interface cross the block.
func TestInitBlockMatchesStateAt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n, shape := range equivShapes(rng) {
		for _, ng := range []int{2, 3} {
			nx, ny := shape[0], shape[1]
			pr := DefaultShockInterface()
			pr.Mach = 1 + 2*rng.Float64()
			pr.Ly = 0.5 + rng.Float64()
			pr.Modes = rng.Intn(4)
			pr.DensityRatio = 1 + 4*rng.Float64()
			if n%3 == 0 {
				pr.Amplitude = 0
			}
			dx, dy := (0.5+rng.Float64())/float64(nx), (0.5+rng.Float64())/float64(ny)
			// The block spans [x0, x0+nx*dx) ~ one unit around the shock.
			x0 := pr.ShockX - rng.Float64()*float64(nx)*dx
			pr.InterfaceX = x0 + rng.Float64()*float64(nx)*dx
			y0 := rng.Float64() * pr.Ly

			got, want := NewBlock(nil, nx, ny, ng), NewBlock(nil, nx, ny, ng)
			randomPlanes(rng, &got.U)
			want.CopyFrom(got)
			pr.InitBlock(got, x0, y0, dx, dy)
			refInitBlock(pr, want, x0, y0, dx, dy)
			requireSamePlanes(t, fmt.Sprintf("InitBlock %dx%d ghost %d", nx, ny, ng), &got.U, &want.U)
		}
	}
}
