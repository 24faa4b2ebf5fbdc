package euler

import (
	"fmt"

	"repro/internal/platform"
)

// EdgeField stores one value per cell interface for each conserved
// variable, in the same row-major orientation as the owning Block. X-face
// fields are written sequentially; Y-face fields are written with a stride
// of one row — which is why the paper's States/Flux components show two
// distinct operating modes.
type EdgeField struct {
	// Dir is the sweep direction the faces are normal to.
	Dir Dir
	// NxCells, NyCells are the interior cell extents of the owning block.
	NxCells, NyCells int
	// Q holds one plane per conserved variable; X faces have
	// (Nx+1)*Ny entries, Y faces Nx*(Ny+1).
	Q [NVars][]float64
	// addr holds per-plane virtual base addresses for cache accounting
	// (zero when the field is not bound to a simulated processor).
	addr [NVars]uint64
}

// NewEdgeField allocates the face storage for a block of nx-by-ny cells.
func NewEdgeField(proc *platform.Proc, nx, ny int, dir Dir) *EdgeField {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("euler: invalid edge field geometry %dx%d", nx, ny))
	}
	e := &EdgeField{Dir: dir, NxCells: nx, NyCells: ny}
	n := e.Len()
	for v := 0; v < NVars; v++ {
		e.Q[v] = make([]float64, n)
		if proc != nil {
			e.addr[v] = proc.Alloc(8 * n)
		}
	}
	return e
}

// Len returns the number of faces.
func (e *EdgeField) Len() int {
	if e.Dir == X {
		return (e.NxCells + 1) * e.NyCells
	}
	return e.NxCells * (e.NyCells + 1)
}

// FaceIdx returns the flat index of face f along the sweep at transverse
// position t: for X fields, face (f, j=t) between cells (f-1, j) and (f, j);
// for Y fields, face (i=t, f) between cells (i, f-1) and (i, f).
func (e *EdgeField) FaceIdx(f, t int) int {
	if e.Dir == X {
		return t*(e.NxCells+1) + f
	}
	return f*e.NxCells + t
}

// AtFace returns the state vector stored at face (f, t).
func (e *EdgeField) AtFace(f, t int) Cons {
	k := e.FaceIdx(f, t)
	var u Cons
	for v := 0; v < NVars; v++ {
		u[v] = e.Q[v][k]
	}
	return u
}

// setFace stores a state vector at face (f, t).
func (e *EdgeField) setFace(f, t int, u Cons) {
	k := e.FaceIdx(f, t)
	for v := 0; v < NVars; v++ {
		e.Q[v][k] = u[v]
	}
}

// chargeSweep charges one directional pass over plane v of the face field
// (plane-major; used where interleaving does not matter).
func (e *EdgeField) chargeSweep(proc *platform.Proc, v int) {
	if proc == nil || e.addr[v] == 0 {
		return
	}
	if e.Dir == X {
		for j := 0; j < e.NyCells; j++ {
			e.chargeLineSegment(proc, v, j, false)
		}
	} else {
		for i := 0; i < e.NxCells; i++ {
			e.chargeLineSegment(proc, v, i, false)
		}
	}
}

// chargeLineSegment charges one row (X fields) or one column (Y fields) of
// plane v at transverse index t.
func (e *EdgeField) chargeLineSegment(proc *platform.Proc, v, t int, overlapped bool) {
	if proc == nil || e.addr[v] == 0 {
		return
	}
	if e.Dir == X {
		proc.ChargeStreamHinted(e.addr[v]+uint64(8*e.FaceIdx(0, t)), e.NxCells+1, 8, overlapped)
		return
	}
	proc.ChargeStreamHinted(e.addr[v]+uint64(8*e.FaceIdx(0, t)), e.NyCells+1, 8*e.NxCells, overlapped)
}

// minmod is the slope limiter used by the MUSCL reconstruction.
func minmod(a, b float64) float64 {
	if a > 0 && b > 0 {
		if a < b {
			return a
		}
		return b
	}
	if a < 0 && b < 0 {
		if a > b {
			return a
		}
		return b
	}
	return 0
}

// statesFlops is the floating-point work per cell of one States sweep
// (slope differences, limiter branches and extrapolation over NVars
// planes, costed as PAPI would count them).
const statesFlops = 9 * NVars

// States performs the paper's States computation: a second-order MUSCL
// reconstruction of left/right interface states along dir, reading the
// block (sequentially for X, strided for Y) and writing qL and qR in the
// same access pattern. The block needs at least 2 ghost layers.
func States(proc *platform.Proc, b *Block, dir Dir, qL, qR *EdgeField) {
	if b.Ng < 2 {
		panic("euler: States needs >= 2 ghost layers")
	}
	if qL.Dir != dir || qR.Dir != dir || qL.NxCells != b.Nx || qL.NyCells != b.Ny ||
		qR.NxCells != b.Nx || qR.NyCells != b.Ny {
		panic("euler: States edge-field geometry mismatch")
	}
	// Each variable is reconstructed from its own plane alone, so the
	// planes are walked one after another, a row of faces at a time: an X
	// face row reads four overlapping windows of one padded cell row, a Y
	// face row reads the four cell rows around it.
	nx, ny := b.Nx, b.Ny
	for v := 0; v < NVars; v++ {
		u, ql, qr := b.U[v], qL.Q[v], qR.Q[v]
		if dir == X {
			for j := 0; j < ny; j++ {
				k := b.Idx(-2, j)
				reconstructRow(ql[j*(nx+1):(j+1)*(nx+1)], qr[j*(nx+1):(j+1)*(nx+1)],
					u[k:], u[k+1:], u[k+2:], u[k+3:])
			}
			continue
		}
		for f := 0; f <= ny; f++ {
			reconstructRow(ql[f*nx:(f+1)*nx], qr[f*nx:(f+1)*nx],
				u[b.Idx(0, f-2):], u[b.Idx(0, f-1):], u[b.Idx(0, f):], u[b.Idx(0, f+1):])
		}
	}
	// Account the work: one read sweep per input plane and one write sweep
	// per output plane, interleaved per row/column exactly as the stencil
	// walks them — the interleaving determines whether a strided pass's
	// working set (all planes of one column) still fits the cache, which
	// is what separates tall from wide patches in Figs. 4/5.
	chargeStatesPass(proc, b, dir, qL, qR)
	if proc != nil {
		proc.ChargeFlops(statesFlops * b.Cells())
	}
}

// chargeStatesPass charges the memory traffic of one States sweep with
// per-line (row or column) interleaving across all planes.
func chargeStatesPass(proc *platform.Proc, b *Block, dir Dir, qL, qR *EdgeField) {
	if proc == nil {
		return
	}
	if dir == X {
		for j := 0; j < b.Ny; j++ {
			for v := 0; v < NVars; v++ {
				b.chargeRowSegment(proc, v, -1, j, b.Nx+2)
				qL.chargeLineSegment(proc, v, j, false)
				qR.chargeLineSegment(proc, v, j, false)
			}
		}
		return
	}
	for i := 0; i < b.Nx; i++ {
		for v := 0; v < NVars; v++ {
			b.chargeColSegment(proc, v, i, -1, b.Ny+2)
			qL.chargeLineSegment(proc, v, i, false)
			qR.chargeLineSegment(proc, v, i, false)
		}
	}
}

// reconstructRow writes the limited left and right states of len(ql)
// faces into ql and qr; face k lies between cells m1[k] and p0[k], with
// m2[k] and p1[k] the next cells out on either side.
func reconstructRow(ql, qr, m2, m1, p0, p1 []float64) {
	n := len(ql)
	qr, m2, m1, p0, p1 = qr[:n], m2[:n], m1[:n], p0[:n], p1[:n]
	for k := range ql {
		um2, um1, u0, up1 := m2[k], m1[k], p0[k], p1[k]
		ql[k] = um1 + 0.5*minmod(um1-um2, u0-um1)
		qr[k] = u0 - 0.5*minmod(u0-um1, up1-u0)
	}
}
