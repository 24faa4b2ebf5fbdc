package euler

import "math"

// ShockInterfaceProblem describes the paper's case study: a Mach-Ms planar
// shock in air travelling toward a (perturbed) interface with Freon
// (Samtaney & Zabusky's shock-accelerated density-stratified interface).
// Lengths are in domain units on [0,Lx] x [0,Ly].
type ShockInterfaceProblem struct {
	// Lx, Ly are the domain extents.
	Lx, Ly float64
	// Mach is the incident shock Mach number (paper: 1.5).
	Mach float64
	// ShockX is the initial shock position.
	ShockX float64
	// InterfaceX is the mean position of the air/Freon interface.
	InterfaceX float64
	// Amplitude and Modes shape the sinusoidal interface perturbation that
	// seeds the Richtmyer–Meshkov roll-up.
	Amplitude float64
	Modes     int
	// DensityRatio is rho_Freon / rho_air at pressure equilibrium
	// (~3 for Freon-22 vs air by molecular weight).
	DensityRatio float64
}

// DefaultShockInterface returns the case-study configuration: a Mach 1.5
// shock hitting a perturbed Air/Freon interface.
func DefaultShockInterface() ShockInterfaceProblem {
	return ShockInterfaceProblem{
		Lx: 4, Ly: 1,
		Mach:         1.5,
		ShockX:       0.8,
		InterfaceX:   1.6,
		Amplitude:    0.08,
		Modes:        2,
		DensityRatio: 3.0,
	}
}

// PostShockAir returns the state behind a Mach-M shock moving in +x into
// quiescent air at (rho=1, p=1), from the normal-shock Rankine–Hugoniot
// relations.
func PostShockAir(mach float64) Prim {
	g := GammaAir
	m2 := mach * mach
	p2 := 1 + 2*g/(g+1)*(m2-1)
	rho2 := (g + 1) * m2 / ((g-1)*m2 + 2)
	c1 := math.Sqrt(g) // sound speed of (1,1) air
	u2 := mach * c1 * (1 - 1/rho2)
	return Prim{Rho: rho2, U: u2, V: 0, P: p2, Y: 0}
}

// AheadAir is quiescent pre-shock air.
func AheadAir() Prim { return Prim{Rho: 1, U: 0, V: 0, P: 1, Y: 0} }

// interfaceAt returns the perturbed interface x-position at height y.
func (pr ShockInterfaceProblem) interfaceAt(y float64) float64 {
	if pr.Modes <= 0 || pr.Amplitude == 0 {
		return pr.InterfaceX
	}
	return pr.InterfaceX + pr.Amplitude*math.Cos(2*math.Pi*float64(pr.Modes)*y/pr.Ly)
}

// StateAt returns the initial primitive state at physical point (x, y).
func (pr ShockInterfaceProblem) StateAt(x, y float64) Prim {
	switch {
	case x < pr.ShockX:
		return PostShockAir(pr.Mach)
	case x < pr.interfaceAt(y):
		return AheadAir()
	default:
		return pr.freon()
	}
}

// freon is the quiescent Freon behind the interface, in pressure
// equilibrium with the air ahead of the shock.
func (pr ShockInterfaceProblem) freon() Prim {
	return Prim{Rho: pr.DensityRatio, U: 0, V: 0, P: 1, Y: 1}
}

// InitBlock fills the block (interior plus ghosts) with the initial
// condition, given the physical origin (x0, y0) of the first interior cell
// corner and the cell sizes.
func (pr ShockInterfaceProblem) InitBlock(b *Block, x0, y0, dx, dy float64) {
	// The same three states as StateAt, converted once per call; the
	// interface position depends on y alone, so it is found once per row.
	post, ahead, freon := ConsFromPrim(PostShockAir(pr.Mach)), ConsFromPrim(AheadAir()), ConsFromPrim(pr.freon())
	for j := -b.Ng; j < b.Ny+b.Ng; j++ {
		y := y0 + (float64(j)+0.5)*dy
		xi := pr.interfaceAt(y)
		k := b.Idx(-b.Ng, j)
		for i := -b.Ng; i < b.Nx+b.Ng; i++ {
			x := x0 + (float64(i)+0.5)*dx
			u := freon
			switch {
			case x < pr.ShockX:
				u = post
			case x < xi:
				u = ahead
			}
			for v := 0; v < NVars; v++ {
				b.U[v][k] = u[v]
			}
			k++
		}
	}
}

// GradientIndicator returns a refinement indicator for cell (i, j): the
// maximum relative jump of density and mass fraction against its neighbors.
// SAMR flags cells whose indicator exceeds a threshold (shocks and the
// material interface).
func GradientIndicator(b *Block, i, j int) float64 {
	c := b.PrimAt(i, j)
	indicator := 0.0
	for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		n := b.PrimAt(i+d[0], j+d[1])
		dr := math.Abs(n.Rho-c.Rho) / c.Rho
		if dr > indicator {
			indicator = dr
		}
		dy := math.Abs(n.Y - c.Y)
		if dy > indicator {
			indicator = dy
		}
		dp := math.Abs(n.P-c.P) / c.P
		if dp > indicator {
			indicator = dp
		}
	}
	return indicator
}
