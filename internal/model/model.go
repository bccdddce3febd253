// Package model compiles relocation-aware floorplanning problems into the
// mixed-integer linear program of the paper (extending the FCCM'14 MILP
// floorplanner [10] with Sections IV and V), ready to be solved by
// internal/milp.
//
// # Variables (per area n — a reconfigurable region or free-compatible area)
//
//	x_n, w_n   leftmost column and width (integer, Section III),
//	y_n, h_n   top row and height; h_n is continuous as in the paper and
//	           pinned through the row indicators a_{n,r},
//	a_{n,r}    binary, 1 iff the area occupies row r (the paper's an,r),
//	k_{n,p}    binary, 1 iff the area's x-projection intersects columnar
//	           portion p; its semantics are enforced through the
//	           left/right indicator pair (left+right+k = 1),
//	ov_{n,p}   continuous overlap (in columns) with portion p, pinned
//	           exactly from both sides via the u/t position binaries,
//	l_{n,p,r}  continuous per-row tile coverage (regions only), pinned to
//	           ov_{n,p}·a_{n,r} so resource coverage and wasted frames
//	           are exact,
//	o_{n,p}    the offset variable of Section IV.B: 1 iff p is the first
//	           portion covered (Equations 4 and 5),
//	q_{n,a}    forbidden-area side indicator (Equations 1 and 2),
//	v_c        Section V violation indicator for metric-mode
//	           free-compatible areas.
//
// # Compatibility encodings
//
// EncodingProfile (default) pins, per area, the profile S_{n,j} = tiles
// covered in the j-th portion right of the first covered portion, and
// TY_{n,j} = that portion's tile type (0 when not covered), both gated by
// o_{n,p}; compatibility of area c with region n then reads S_{c,j} =
// S_{n,j} and TY_{c,j} = TY_{n,j} for all j, plus the paper's Equations 6
// and 7. This is equivalent to Equations 8-10 (see DESIGN.md) with
// O(|P|^2) instead of O(|P|^3) constraints per pair.
//
// EncodingPairwise emits Equations 9 and 10 literally (the big-M pairs
// over (pc, pn, i)), for fidelity testing on small devices.
//
// # Non-overlap
//
// The O algorithm uses the classic four-way disjunction with indicator
// binaries; the HO algorithm replaces it with the linear order constraints
// induced by a sequence pair (Options.SeqPair), as in [10].
package model

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/seqpair"
)

// Encoding selects how free-compatible-area compatibility is expressed.
type Encoding int

const (
	// EncodingProfile uses the offset-gated portion profiles
	// (equivalent to Equations 8-10, asymptotically smaller).
	EncodingProfile Encoding = iota
	// EncodingPairwise uses Equations 9/10 verbatim.
	EncodingPairwise
)

// Options tunes the compilation.
type Options struct {
	// Encoding selects the compatibility encoding.
	Encoding Encoding
	// SeqPair, when non-nil, compiles the HO variant: non-overlap is
	// enforced through the pair's order relations instead of
	// disjunction binaries for the areas listed in SeqMembers.
	SeqPair *seqpair.Pair
	// SeqMembers maps sequence-pair element i to an area index (areas
	// are regions then FC requests, in problem order). nil means the
	// identity over all areas. Pairs involving a non-member area fall
	// back to disjunction binaries, which lets HO handle seeds whose
	// metric-mode FC areas were not placed.
	SeqMembers []int
	// WireObjective adds the wire-length term to the LP objective with
	// this weight per tile of weighted HPWL (0 = waste-only objective;
	// the lexicographic refinement is done by a second solve).
	WireObjective float64
}

// Compiled is a compiled floorplanning MILP plus the variable maps needed
// to decode solutions and build warm starts.
type Compiled struct {
	Problem *core.Problem
	Part    *partition.Partitioning
	LP      *lp.Model
	Opts    Options

	// nAreas = len(regions) + len(FC requests); area index a is a
	// region for a < len(regions), otherwise FC request a-len(regions).
	nAreas int

	x, w, y, h []lp.VarID
	a          [][]lp.VarID           // [area][row]
	k          [][]lp.VarID           // [area][portion]
	left, rt   [][]lp.VarID           // [area][portion]
	uu, tt     [][]lp.VarID           // [area][portion] exact-overlap binaries
	ov         [][]lp.VarID           // [area][portion]
	l          [][][]lp.VarID         // [area][portion][row]; nil for FC areas under EncodingProfile
	off        [][]lp.VarID           // offsets o_{n,p}; nil for areas without compatibility role
	profS      [][]lp.VarID           // S profile; nil unless compat area under EncodingProfile
	profT      [][]lp.VarID           // TY profile
	q          [][]lp.VarID           // [area][forbidden]
	viol       []lp.VarID             // per FC request; -1 unless metric mode
	dx, dy     []lp.VarID             // per net
	delta      map[[2]int][4]lp.VarID // non-overlap disjunction binaries per pair

	reqFrames int // sum of minimal frames of all regions (constant in waste)
}

// regionCount returns the number of reconfigurable regions.
func (c *Compiled) regionCount() int { return len(c.Problem.Regions) }

// areaRegion maps area index -> the region whose shape it must take (the
// area itself for regions, the compat region for FC areas).
func (c *Compiled) areaRegion(area int) int {
	if area < c.regionCount() {
		return area
	}
	return c.Problem.FCAreas[area-c.regionCount()].Region
}

// areaName labels an area for variable/constraint names.
func (c *Compiled) areaName(area int) string {
	if area < c.regionCount() {
		return fmt.Sprintf("r%d", area)
	}
	return fmt.Sprintf("fc%d", area-c.regionCount())
}

// isCompatArea reports whether the area participates in compatibility
// constraints (an FC area, or a region with at least one FC request).
func (c *Compiled) isCompatArea(area int) bool {
	if area >= c.regionCount() {
		return true
	}
	for _, fc := range c.Problem.FCAreas {
		for _, ri := range fc.CompatRegions() {
			if ri == area {
				return true
			}
		}
	}
	return false
}

// Build compiles the problem.
func Build(p *core.Problem, opts Options) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	part, err := partition.Columnar(p.Device)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	c := &Compiled{
		Problem: p,
		Part:    part,
		LP:      lp.NewModel(),
		Opts:    opts,
		nAreas:  len(p.Regions) + len(p.FCAreas),
	}
	for _, r := range p.Regions {
		f, err := p.Device.FramesForRequirements(r.Req)
		if err != nil {
			return nil, fmt.Errorf("model: region %q: %w", r.Name, err)
		}
		c.reqFrames += f
	}
	if opts.SeqPair != nil {
		nMembers := c.nAreas
		if opts.SeqMembers != nil {
			nMembers = len(opts.SeqMembers)
			for _, area := range opts.SeqMembers {
				if area < 0 || area >= c.nAreas {
					return nil, fmt.Errorf("model: sequence-pair member %d out of range", area)
				}
			}
		}
		if err := opts.SeqPair.Validate(nMembers); err != nil {
			return nil, fmt.Errorf("model: HO sequence pair: %w", err)
		}
	}

	c.buildAreaVariables()
	c.buildGeometry()
	c.buildPortionCoverage()
	c.buildForbidden()
	c.buildResources()
	c.buildOffsets()
	switch opts.Encoding {
	case EncodingProfile:
		c.buildProfiles()
		c.buildProfileCompatibility()
	case EncodingPairwise:
		c.buildPairwiseCompatibility()
	default:
		return nil, fmt.Errorf("model: unknown encoding %d", opts.Encoding)
	}
	c.buildNonOverlap()
	c.buildSymmetryBreaking()
	c.buildObjective()
	return c, nil
}

// identicalFCGroups partitions the FC request indices into groups of
// interchangeable requests: same primary region, same AlsoCompatible set,
// same mode and same effective weight. Any solution permuting such a
// group's placements is equivalent — nets only attach to regions — which
// makes the group a pure symmetry of the MILP.
func identicalFCGroups(p *core.Problem) [][]int {
	byKey := map[string][]int{}
	var order []string
	for i, fc := range p.FCAreas {
		extras := append([]int(nil), fc.AlsoCompatible...)
		sort.Ints(extras)
		key := fmt.Sprintf("%d|%v|%d|%g", fc.Region, extras, fc.Mode, fc.EffectiveWeight())
		if _, seen := byKey[key]; !seen {
			order = append(order, key)
		}
		byKey[key] = append(byKey[key], i)
	}
	groups := make([][]int, 0, len(order))
	for _, key := range order {
		groups = append(groups, byKey[key])
	}
	return groups
}

// buildSymmetryBreaking orders the placements of interchangeable FC
// requests canonically: within each identical group, consecutive areas i,
// j satisfy W*y_i + x_i <= W*y_j + x_j (lexicographic by row, then
// column). This prunes the k! permutations of a k-request group from the
// branch-and-bound tree without excluding any distinct floorplan. The
// comparison is non-strict because missed metric-mode areas may
// legitimately coincide. Skipped in HO mode: the seed's sequence pair
// already fixes every pairwise order and could contradict the canonical
// one.
func (c *Compiled) buildSymmetryBreaking() {
	if c.Opts.SeqPair != nil {
		return
	}
	W := c.bigW()
	for _, g := range identicalFCGroups(c.Problem) {
		for t := 1; t < len(g); t++ {
			i := c.regionCount() + g[t-1]
			j := c.regionCount() + g[t]
			c.LP.AddConstraint(fmt.Sprintf("sym.fc%d.fc%d", g[t-1], g[t]), []lp.Term{
				{Var: c.y[i], Coef: W}, {Var: c.x[i], Coef: 1},
				{Var: c.y[j], Coef: -W}, {Var: c.x[j], Coef: -1},
			}, lp.LE, 0)
		}
	}
}

// bigW and bigH are the big-M constants of the x and y dimensions (the
// paper's maxW).
func (c *Compiled) bigW() float64 { return float64(c.Problem.Device.Width()) }
func (c *Compiled) bigH() float64 { return float64(c.Problem.Device.Height()) }

func (c *Compiled) buildAreaVariables() {
	W := c.Problem.Device.Width()
	H := c.Problem.Device.Height()
	P := c.Part.NumPortions()
	R := len(c.Problem.FCAreas)

	c.x = make([]lp.VarID, c.nAreas)
	c.w = make([]lp.VarID, c.nAreas)
	c.y = make([]lp.VarID, c.nAreas)
	c.h = make([]lp.VarID, c.nAreas)
	c.a = make([][]lp.VarID, c.nAreas)
	c.k = make([][]lp.VarID, c.nAreas)
	c.left = make([][]lp.VarID, c.nAreas)
	c.rt = make([][]lp.VarID, c.nAreas)
	c.uu = make([][]lp.VarID, c.nAreas)
	c.tt = make([][]lp.VarID, c.nAreas)
	c.ov = make([][]lp.VarID, c.nAreas)
	c.l = make([][][]lp.VarID, c.nAreas)
	c.off = make([][]lp.VarID, c.nAreas)
	c.profS = make([][]lp.VarID, c.nAreas)
	c.profT = make([][]lp.VarID, c.nAreas)
	c.q = make([][]lp.VarID, c.nAreas)
	c.viol = make([]lp.VarID, R)
	for i := range c.viol {
		c.viol[i] = -1
	}

	for n := 0; n < c.nAreas; n++ {
		name := c.areaName(n)
		c.x[n] = c.LP.AddInteger(name+".x", 0, float64(W-1), 0)
		c.w[n] = c.LP.AddInteger(name+".w", 1, float64(W), 0)
		c.y[n] = c.LP.AddInteger(name+".y", 0, float64(H-1), 0)
		c.h[n] = c.LP.AddVariable(name+".h", 1, float64(H), 0)
		c.a[n] = make([]lp.VarID, H)
		for r := 0; r < H; r++ {
			c.a[n][r] = c.LP.AddBinary(fmt.Sprintf("%s.a[%d]", name, r), 0)
		}
		c.k[n] = make([]lp.VarID, P)
		c.left[n] = make([]lp.VarID, P)
		c.rt[n] = make([]lp.VarID, P)
		c.uu[n] = make([]lp.VarID, P)
		c.tt[n] = make([]lp.VarID, P)
		c.ov[n] = make([]lp.VarID, P)
		for p := 0; p < P; p++ {
			pw := float64(c.Part.Portions[p].Width())
			c.k[n][p] = c.LP.AddBinary(fmt.Sprintf("%s.k[%d]", name, p), 0)
			c.left[n][p] = c.LP.AddBinary(fmt.Sprintf("%s.left[%d]", name, p), 0)
			c.rt[n][p] = c.LP.AddBinary(fmt.Sprintf("%s.right[%d]", name, p), 0)
			c.uu[n][p] = c.LP.AddBinary(fmt.Sprintf("%s.u[%d]", name, p), 0)
			c.tt[n][p] = c.LP.AddBinary(fmt.Sprintf("%s.t[%d]", name, p), 0)
			c.ov[n][p] = c.LP.AddVariable(fmt.Sprintf("%s.ov[%d]", name, p), 0, pw, 0)
		}
		// Per-row coverage variables: regions always (resources and
		// waste objective); FC areas only under the pairwise encoding
		// (Equation 9 needs their l sums).
		if n < c.regionCount() || c.Opts.Encoding == EncodingPairwise {
			c.l[n] = make([][]lp.VarID, P)
			for p := 0; p < P; p++ {
				pw := float64(c.Part.Portions[p].Width())
				c.l[n][p] = make([]lp.VarID, H)
				for r := 0; r < H; r++ {
					c.l[n][p][r] = c.LP.AddVariable(fmt.Sprintf("%s.l[%d][%d]", name, p, r), 0, pw, 0)
				}
			}
		}
		c.q[n] = make([]lp.VarID, len(c.Part.Forbidden))
		for fa := range c.Part.Forbidden {
			c.q[n][fa] = c.LP.AddBinary(fmt.Sprintf("%s.q[%d]", name, fa), 0)
		}
	}
	for i, fc := range c.Problem.FCAreas {
		if fc.Mode == core.RelocMetric {
			c.viol[i] = c.LP.AddBinary(fmt.Sprintf("v[%d]", i), 0)
		}
	}
	c.dx = make([]lp.VarID, len(c.Problem.Nets))
	c.dy = make([]lp.VarID, len(c.Problem.Nets))
	for e := range c.Problem.Nets {
		c.dx[e] = c.LP.AddVariable(fmt.Sprintf("net%d.dx", e), 0, lp.Inf, 0)
		c.dy[e] = c.LP.AddVariable(fmt.Sprintf("net%d.dy", e), 0, lp.Inf, 0)
	}
}

// buildGeometry links x/w/y/h/a: areas stay inside the device, h equals
// the number of occupied rows, and the occupied rows form the window
// [y, y+h).
func (c *Compiled) buildGeometry() {
	W, H := c.bigW(), c.bigH()
	for n := 0; n < c.nAreas; n++ {
		name := c.areaName(n)
		c.LP.AddConstraint(name+".fitX",
			[]lp.Term{{Var: c.x[n], Coef: 1}, {Var: c.w[n], Coef: 1}}, lp.LE, W)
		c.LP.AddConstraint(name+".fitY",
			[]lp.Term{{Var: c.y[n], Coef: 1}, {Var: c.h[n], Coef: 1}}, lp.LE, H)
		// h = sum of row indicators.
		terms := []lp.Term{{Var: c.h[n], Coef: -1}}
		for r := 0; r < int(H); r++ {
			terms = append(terms, lp.Term{Var: c.a[n][r], Coef: 1})
		}
		c.LP.AddConstraint(name+".hRows", terms, lp.EQ, 0)
		// Row window: a_{n,r}=1 implies y <= r and y+h >= r+1. Together
		// with the row count this pins a to exactly [y, y+h).
		for r := 0; r < int(H); r++ {
			c.LP.AddConstraint(fmt.Sprintf("%s.rowLo[%d]", name, r),
				[]lp.Term{{Var: c.y[n], Coef: 1}, {Var: c.a[n][r], Coef: H}}, lp.LE, float64(r)+H)
			c.LP.AddConstraint(fmt.Sprintf("%s.rowHi[%d]", name, r),
				[]lp.Term{{Var: c.y[n], Coef: 1}, {Var: c.h[n], Coef: 1}, {Var: c.a[n][r], Coef: -H}}, lp.GE, float64(r)+1-H)
		}
	}
}

// buildPortionCoverage enforces the k/left/right trichotomy, pins the
// portion overlaps ov, and (where l variables exist) pins the per-row
// coverage l.
func (c *Compiled) buildPortionCoverage() {
	W := c.bigW()
	for n := 0; n < c.nAreas; n++ {
		name := c.areaName(n)
		for p, por := range c.Part.Portions {
			x1 := float64(por.X1)
			x2 := float64(por.X2)
			pw := float64(por.Width())
			pfx := fmt.Sprintf("%s.p%d", name, p)

			// Exactly one of: area left of portion, right of portion,
			// or intersecting it.
			c.LP.AddConstraint(pfx+".tri", []lp.Term{
				{Var: c.left[n][p], Coef: 1}, {Var: c.rt[n][p], Coef: 1}, {Var: c.k[n][p], Coef: 1},
			}, lp.EQ, 1)
			// left=1 -> x+w <= X1 (Equation 1 shape).
			c.LP.AddConstraint(pfx+".left", []lp.Term{
				{Var: c.x[n], Coef: 1}, {Var: c.w[n], Coef: 1}, {Var: c.left[n][p], Coef: W},
			}, lp.LE, x1+W)
			// right=1 -> x >= X2+1.
			c.LP.AddConstraint(pfx+".right", []lp.Term{
				{Var: c.x[n], Coef: 1}, {Var: c.rt[n][p], Coef: -W},
			}, lp.GE, x2+1-W)
			// k=1 -> x <= X2 and x+w >= X1+1 (projections intersect).
			c.LP.AddConstraint(pfx+".kLo", []lp.Term{
				{Var: c.x[n], Coef: 1}, {Var: c.k[n][p], Coef: W},
			}, lp.LE, x2+W)
			c.LP.AddConstraint(pfx+".kHi", []lp.Term{
				{Var: c.x[n], Coef: 1}, {Var: c.w[n], Coef: 1}, {Var: c.k[n][p], Coef: -W},
			}, lp.GE, x1+1-W)

			// Overlap upper caps: ov <= true overlap, and 0 when k=0.
			c.LP.AddConstraint(pfx+".ovW", []lp.Term{
				{Var: c.ov[n][p], Coef: 1}, {Var: c.w[n], Coef: -1},
			}, lp.LE, 0)
			c.LP.AddConstraint(pfx+".ovK", []lp.Term{
				{Var: c.ov[n][p], Coef: 1}, {Var: c.k[n][p], Coef: -pw},
			}, lp.LE, 0)
			c.LP.AddConstraint(pfx+".ovR", []lp.Term{
				{Var: c.ov[n][p], Coef: 1}, {Var: c.x[n], Coef: -1}, {Var: c.w[n], Coef: -1}, {Var: c.k[n][p], Coef: W},
			}, lp.LE, -x1+W)
			c.LP.AddConstraint(pfx+".ovL", []lp.Term{
				{Var: c.ov[n][p], Coef: 1}, {Var: c.x[n], Coef: 1}, {Var: c.k[n][p], Coef: W},
			}, lp.LE, x2+1+W)

			// u=1 <-> x >= X1; t=1 <-> x+w <= X2+1.
			c.LP.AddConstraint(pfx+".u1", []lp.Term{
				{Var: c.x[n], Coef: 1}, {Var: c.uu[n][p], Coef: -W},
			}, lp.GE, x1-W)
			c.LP.AddConstraint(pfx+".u0", []lp.Term{
				{Var: c.x[n], Coef: 1}, {Var: c.uu[n][p], Coef: -W},
			}, lp.LE, x1-1)
			c.LP.AddConstraint(pfx+".t1", []lp.Term{
				{Var: c.x[n], Coef: 1}, {Var: c.w[n], Coef: 1}, {Var: c.tt[n][p], Coef: W},
			}, lp.LE, x2+1+W)
			c.LP.AddConstraint(pfx+".t0", []lp.Term{
				{Var: c.x[n], Coef: 1}, {Var: c.w[n], Coef: 1}, {Var: c.tt[n][p], Coef: W},
			}, lp.GE, x2+2)

			// Overlap lower bounds, selected by (u, t):
			//   u=1, t=1: ov >= w          (area inside portion span)
			//   u=1, t=0: ov >= X2+1-x     (starts inside, ends right)
			//   u=0, t=1: ov >= x+w-X1     (starts left, ends inside)
			//   u=0, t=0: ov >= width_p    (covers whole portion)
			c.LP.AddConstraint(pfx+".ovLB1", []lp.Term{
				{Var: c.ov[n][p], Coef: 1}, {Var: c.w[n], Coef: -1},
				{Var: c.uu[n][p], Coef: -W}, {Var: c.tt[n][p], Coef: -W},
			}, lp.GE, -2*W)
			c.LP.AddConstraint(pfx+".ovLB2", []lp.Term{
				{Var: c.ov[n][p], Coef: 1}, {Var: c.x[n], Coef: 1},
				{Var: c.uu[n][p], Coef: -W}, {Var: c.tt[n][p], Coef: W},
			}, lp.GE, x2+1-W)
			c.LP.AddConstraint(pfx+".ovLB3", []lp.Term{
				{Var: c.ov[n][p], Coef: 1}, {Var: c.x[n], Coef: -1}, {Var: c.w[n], Coef: -1},
				{Var: c.uu[n][p], Coef: W}, {Var: c.tt[n][p], Coef: -W},
			}, lp.GE, -x1-W)
			c.LP.AddConstraint(pfx+".ovLB4", []lp.Term{
				{Var: c.ov[n][p], Coef: 1},
				{Var: c.uu[n][p], Coef: W}, {Var: c.tt[n][p], Coef: W},
			}, lp.GE, pw)

			// Per-row coverage pinning: l = ov when the row is covered,
			// 0 otherwise.
			if c.l[n] != nil {
				for r := 0; r < c.Problem.Device.Height(); r++ {
					lv := c.l[n][p][r]
					c.LP.AddConstraint(fmt.Sprintf("%s.l%dcap", pfx, r), []lp.Term{
						{Var: lv, Coef: 1}, {Var: c.a[n][r], Coef: -pw},
					}, lp.LE, 0)
					c.LP.AddConstraint(fmt.Sprintf("%s.l%dov", pfx, r), []lp.Term{
						{Var: lv, Coef: 1}, {Var: c.ov[n][p], Coef: -1},
					}, lp.LE, 0)
					c.LP.AddConstraint(fmt.Sprintf("%s.l%dlb", pfx, r), []lp.Term{
						{Var: lv, Coef: 1}, {Var: c.ov[n][p], Coef: -1}, {Var: c.a[n][r], Coef: -pw},
					}, lp.GE, -pw)
				}
			}
		}
	}
}

// buildForbidden emits Equations 1 and 2 for every (area, forbidden area)
// pair; metric-mode FC areas get the +v_c relaxation on Equation 2.
func (c *Compiled) buildForbidden() {
	W := c.bigW()
	for n := 0; n < c.nAreas; n++ {
		name := c.areaName(n)
		for fa, rect := range c.Part.Forbidden {
			xa1 := float64(rect.X)
			xa2 := float64(rect.X2() - 1)
			// Equation 1: x + w <= xa1 + q*maxW.
			c.LP.AddConstraint(fmt.Sprintf("%s.f%d.eq1", name, fa), []lp.Term{
				{Var: c.x[n], Coef: 1}, {Var: c.w[n], Coef: 1}, {Var: c.q[n][fa], Coef: -W},
			}, lp.LE, xa1)
			// Equation 2: for rows of the forbidden area,
			// x >= xa2+1 - (2 - q - a_{n,r})*maxW  (+ v_c*maxW).
			for r := rect.Y; r < rect.Y2(); r++ {
				terms := []lp.Term{
					{Var: c.x[n], Coef: 1},
					{Var: c.q[n][fa], Coef: -W},
					{Var: c.a[n][r], Coef: -W},
				}
				rhs := xa2 + 1 - 2*W
				if v := c.violOf(n); v >= 0 {
					terms = append(terms, lp.Term{Var: v, Coef: W})
				}
				c.LP.AddConstraint(fmt.Sprintf("%s.f%d.eq2r%d", name, fa, r), terms, lp.GE, rhs)
			}
		}
	}
}

// violOf returns the violation variable of an FC area (metric mode), or -1.
func (c *Compiled) violOf(area int) lp.VarID {
	if area < c.regionCount() {
		return -1
	}
	return c.viol[area-c.regionCount()]
}

// buildResources emits the per-class coverage constraints of the regions,
// in sorted class order so the model's row order does not depend on map
// iteration: the simplex follows row order, so a random order would make
// node and pivot counts differ between runs of the same problem.
func (c *Compiled) buildResources() {
	d := c.Problem.Device
	for n := 0; n < c.regionCount(); n++ {
		req := c.Problem.Regions[n].Req
		classes := make([]device.Class, 0, len(req))
		for class := range req {
			classes = append(classes, class)
		}
		sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })
		for _, class := range classes {
			needed := req[class]
			if needed <= 0 {
				continue
			}
			var terms []lp.Term
			for p, por := range c.Part.Portions {
				if d.Type(por.Type).Class != class {
					continue
				}
				for r := 0; r < d.Height(); r++ {
					terms = append(terms, lp.Term{Var: c.l[n][p][r], Coef: 1})
				}
			}
			c.LP.AddConstraint(fmt.Sprintf("%s.res.%s", c.areaName(n), class),
				terms, lp.GE, float64(needed))
		}
	}
}

// buildOffsets emits Equations 4 and 5 for every compatibility-relevant
// area.
func (c *Compiled) buildOffsets() {
	P := c.Part.NumPortions()
	for n := 0; n < c.nAreas; n++ {
		if !c.isCompatArea(n) {
			continue
		}
		name := c.areaName(n)
		c.off[n] = make([]lp.VarID, P)
		for p := 0; p < P; p++ {
			c.off[n][p] = c.LP.AddVariable(fmt.Sprintf("%s.o[%d]", name, p), 0, 1, 0)
		}
		// Equation 4: offsets sum to one.
		terms := make([]lp.Term, P)
		for p := 0; p < P; p++ {
			terms[p] = lp.Term{Var: c.off[n][p], Coef: 1}
		}
		c.LP.AddConstraint(name+".offSum", terms, lp.EQ, 1)
		// Equation 5.
		c.LP.AddConstraint(name+".off0", []lp.Term{
			{Var: c.off[n][0], Coef: 1}, {Var: c.k[n][0], Coef: -1},
		}, lp.EQ, 0)
		for p := 1; p < P; p++ {
			c.LP.AddConstraint(fmt.Sprintf("%s.off%d", name, p), []lp.Term{
				{Var: c.off[n][p], Coef: 1}, {Var: c.k[n][p], Coef: -1}, {Var: c.k[n][p-1], Coef: 1},
			}, lp.GE, 0)
		}
	}
}

// buildNonOverlap emits the pairwise non-overlap constraints: disjunction
// binaries for O, sequence-pair order constraints for HO. Metric-mode FC
// areas get the v_c relaxation.
func (c *Compiled) buildNonOverlap() {
	W, H := c.bigW(), c.bigH()
	relax := func(i, j int) []lp.Term {
		var terms []lp.Term
		if v := c.violOf(i); v >= 0 {
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
		if v := c.violOf(j); v >= 0 {
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
		return terms
	}

	c.delta = map[[2]int][4]lp.VarID{}
	disjunction := func(i, j int) {
		name := fmt.Sprintf("no.%s.%s", c.areaName(i), c.areaName(j))
		d1 := c.LP.AddBinary(name+".dL", 0)
		d2 := c.LP.AddBinary(name+".dR", 0)
		d3 := c.LP.AddBinary(name+".dA", 0)
		d4 := c.LP.AddBinary(name+".dB", 0)
		c.delta[[2]int{i, j}] = [4]lp.VarID{d1, d2, d3, d4}
		c.LP.AddConstraint(name+".L", []lp.Term{
			{Var: c.x[i], Coef: 1}, {Var: c.w[i], Coef: 1}, {Var: c.x[j], Coef: -1}, {Var: d1, Coef: W},
		}, lp.LE, W)
		c.LP.AddConstraint(name+".R", []lp.Term{
			{Var: c.x[j], Coef: 1}, {Var: c.w[j], Coef: 1}, {Var: c.x[i], Coef: -1}, {Var: d2, Coef: W},
		}, lp.LE, W)
		c.LP.AddConstraint(name+".A", []lp.Term{
			{Var: c.y[i], Coef: 1}, {Var: c.h[i], Coef: 1}, {Var: c.y[j], Coef: -1}, {Var: d3, Coef: H},
		}, lp.LE, H)
		c.LP.AddConstraint(name+".B", []lp.Term{
			{Var: c.y[j], Coef: 1}, {Var: c.h[j], Coef: 1}, {Var: c.y[i], Coef: -1}, {Var: d4, Coef: H},
		}, lp.LE, H)
		sum := []lp.Term{{Var: d1, Coef: 1}, {Var: d2, Coef: 1}, {Var: d3, Coef: 1}, {Var: d4, Coef: 1}}
		sum = append(sum, relax(i, j)...)
		c.LP.AddConstraint(name+".one", sum, lp.GE, 1)
	}

	if sp := c.Opts.SeqPair; sp != nil {
		members := c.Opts.SeqMembers
		if members == nil {
			members = make([]int, c.nAreas)
			for i := range members {
				members[i] = i
			}
		}
		inPair := make([]bool, c.nAreas)
		for _, area := range members {
			inPair[area] = true
		}
		sp.Relations(len(members), func(mi, mj int, rel seqpair.Rel) {
			i, j := members[mi], members[mj]
			name := fmt.Sprintf("sp.%s.%s", c.areaName(i), c.areaName(j))
			lo, hi := i, j
			horizontal := true
			switch rel {
			case seqpair.Left:
			case seqpair.Right:
				lo, hi = j, i
			case seqpair.Above:
				horizontal = false
			case seqpair.Below:
				lo, hi = j, i
				horizontal = false
			}
			var terms []lp.Term
			if horizontal {
				terms = []lp.Term{{Var: c.x[lo], Coef: 1}, {Var: c.w[lo], Coef: 1}, {Var: c.x[hi], Coef: -1}}
				for _, t := range relax(i, j) {
					terms = append(terms, lp.Term{Var: t.Var, Coef: -W})
				}
			} else {
				terms = []lp.Term{{Var: c.y[lo], Coef: 1}, {Var: c.h[lo], Coef: 1}, {Var: c.y[hi], Coef: -1}}
				for _, t := range relax(i, j) {
					terms = append(terms, lp.Term{Var: t.Var, Coef: -H})
				}
			}
			c.LP.AddConstraint(name, terms, lp.LE, 0)
		})
		// Areas outside the sequence pair (e.g. metric-mode FC areas the
		// seed could not place) keep the generic disjunction.
		for i := 0; i < c.nAreas; i++ {
			for j := i + 1; j < c.nAreas; j++ {
				if !inPair[i] || !inPair[j] {
					disjunction(i, j)
				}
			}
		}
		return
	}

	for i := 0; i < c.nAreas; i++ {
		for j := i + 1; j < c.nAreas; j++ {
			disjunction(i, j)
		}
	}
}

// buildObjective sets the LP objective: wasted frames (covered minus the
// constant requirement) plus the optional wire-length term, plus a large
// penalty per violated metric-mode FC area.
func (c *Compiled) buildObjective() {
	d := c.Problem.Device
	for n := 0; n < c.regionCount(); n++ {
		for p, por := range c.Part.Portions {
			frames := float64(d.Type(por.Type).Frames)
			for r := 0; r < d.Height(); r++ {
				c.LP.SetObjective(c.l[n][p][r], frames)
			}
		}
	}
	for e, net := range c.Problem.Nets {
		// dx >= |cx_i - cx_j| with cx = x + w/2 (and dy likewise); the
		// objective coefficient is installed by StageWireLength or by a
		// positive Options.WireObjective blend weight.
		i, j := net.A, net.B
		c.LP.AddConstraint(fmt.Sprintf("net%d.dx1", e), []lp.Term{
			{Var: c.dx[e], Coef: 1},
			{Var: c.x[i], Coef: -1}, {Var: c.w[i], Coef: -0.5},
			{Var: c.x[j], Coef: 1}, {Var: c.w[j], Coef: 0.5},
		}, lp.GE, 0)
		c.LP.AddConstraint(fmt.Sprintf("net%d.dx2", e), []lp.Term{
			{Var: c.dx[e], Coef: 1},
			{Var: c.x[i], Coef: 1}, {Var: c.w[i], Coef: 0.5},
			{Var: c.x[j], Coef: -1}, {Var: c.w[j], Coef: -0.5},
		}, lp.GE, 0)
		c.LP.AddConstraint(fmt.Sprintf("net%d.dy1", e), []lp.Term{
			{Var: c.dy[e], Coef: 1},
			{Var: c.y[i], Coef: -1}, {Var: c.h[i], Coef: -0.5},
			{Var: c.y[j], Coef: 1}, {Var: c.h[j], Coef: 0.5},
		}, lp.GE, 0)
		c.LP.AddConstraint(fmt.Sprintf("net%d.dy2", e), []lp.Term{
			{Var: c.dy[e], Coef: 1},
			{Var: c.y[i], Coef: 1}, {Var: c.h[i], Coef: 0.5},
			{Var: c.y[j], Coef: -1}, {Var: c.h[j], Coef: -0.5},
		}, lp.GE, 0)
		if w := c.Opts.WireObjective; w > 0 {
			c.LP.SetObjective(c.dx[e], w*net.Weight)
			c.LP.SetObjective(c.dy[e], w*net.Weight)
		}
	}
	// Metric-mode violation penalty: RLcost with weights large enough to
	// dominate the waste term (Section V, Equations 13-14 with q4 set to
	// make relocation the leading tier).
	penalty := float64(d.TotalFrames() + 1)
	for i, fc := range c.Problem.FCAreas {
		if c.viol[i] >= 0 {
			c.LP.SetObjective(c.viol[i], penalty*fc.EffectiveWeight())
		}
	}
}

// StageWireLength converts the compiled model into the second pass of the
// lexicographic solve: the stage-1 objective (relocation misses and
// covered frames) is frozen at its optimum via cap constraints and the
// objective becomes the weighted wire length. stage1X must be the optimal
// stage-1 solution vector; it remains feasible afterwards and can warm
// start the second solve.
func (c *Compiled) StageWireLength(stage1X []float64) {
	d := c.Problem.Device
	// Cap the covered frames.
	covered := 0.0
	var coverTerms []lp.Term
	for n := 0; n < c.regionCount(); n++ {
		for p, por := range c.Part.Portions {
			frames := float64(d.Type(por.Type).Frames)
			for r := 0; r < d.Height(); r++ {
				covered += frames * stage1X[c.l[n][p][r]]
				coverTerms = append(coverTerms, lp.Term{Var: c.l[n][p][r], Coef: frames})
				c.LP.SetObjective(c.l[n][p][r], 0)
			}
		}
	}
	// Allow half a frame of slack so numerical noise in stage 1 cannot
	// make the stage-2 model infeasible; the frame counts are integers.
	c.LP.AddConstraint("stage2.coverCap", coverTerms, lp.LE, covered+0.5)
	// Cap the relocation misses.
	var violTerms []lp.Term
	miss := 0.0
	for i, fc := range c.Problem.FCAreas {
		if c.viol[i] < 0 {
			continue
		}
		violTerms = append(violTerms, lp.Term{Var: c.viol[i], Coef: fc.EffectiveWeight()})
		miss += fc.EffectiveWeight() * stage1X[c.viol[i]]
		c.LP.SetObjective(c.viol[i], 0)
	}
	if len(violTerms) > 0 {
		c.LP.AddConstraint("stage2.missCap", violTerms, lp.LE, miss+1e-6)
	}
	for e, net := range c.Problem.Nets {
		c.LP.SetObjective(c.dx[e], net.Weight)
		c.LP.SetObjective(c.dy[e], net.Weight)
	}
}
