// Package strlgen is the STRL Generator (§3.1, §4.4): it combines a pending
// job's placement-preference type with its reservation-supplied deadline,
// runtime estimate, and priority signal to emit a STRL expression offering
// every feasible (placement, start-time) option inside the plan-ahead
// window, each valued by the class value function of Fig 5.
package strlgen

import (
	"fmt"
	"math"
	"slices"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/strl"
	"tetrisched/internal/workload"
)

// Config tunes STRL generation.
type Config struct {
	// Quantum is seconds per time slice; equals the scheduling cycle period
	// so the window shifts one slice per cycle.
	Quantum int64
	// PlanAheadSlices is the window size in slices (≥1; 1 disables deferred
	// placement, the TetriSched-NP / alsched configuration).
	PlanAheadSlices int64
	// MaxStartChoices caps the number of start-time options per placement;
	// starts are strided across the window when it exceeds the cap. This is
	// the expression-growth culling of §3.2.1.
	MaxStartChoices int
	// FallbackStartChoices caps start-time options for non-preferred
	// fallback placements, which span many partition groups and dominate
	// MILP size; preferred placements keep the full resolution.
	FallbackStartChoices int
	// MaxRackChoices caps how many rack-local options an MPI job offers;
	// racks are rotated by job ID so the population still covers the whole
	// cluster.
	MaxRackChoices int
	// NoHeterogeneity disables placement preferences (TetriSched-NH): every
	// job asks for k nodes from the whole cluster with a conservatively
	// slowed duration estimate (§6.3).
	NoHeterogeneity bool

	// Value function parameters (Fig 5).
	ValueAcceptedSLO float64 // default 1000
	ValueSLONoRes    float64 // default 25
	ValueBE          float64 // default 1
	// BEDecay is the time for a best-effort job's value to decay linearly
	// from ValueBE toward BEFloor.
	BEDecay int64
	BEFloor float64
	// EarlinessEps breaks ties among equal-valued options in favor of
	// earlier *completion* (fraction of value per slice of completion
	// delay): a job that can finish sooner by briefly waiting for preferred
	// resources is worth slightly more than one that starts now on slow
	// ones, which is exactly the deferral tradeoff of §2.3.2.
	EarlinessEps float64
}

// Default returns the paper's configuration for the given quantum and
// plan-ahead window (both seconds).
func Default(quantum, planAhead int64) Config {
	slices := planAhead / quantum
	if slices < 1 {
		slices = 1
	}
	return Config{
		Quantum:              quantum,
		PlanAheadSlices:      slices,
		MaxStartChoices:      12,
		FallbackStartChoices: 4,
		MaxRackChoices:       4,
		ValueAcceptedSLO:     1000,
		ValueSLONoRes:        25,
		ValueBE:              1,
		BEDecay:              3600,
		BEFloor:              0.01,
		EarlinessEps:         0.001,
	}
}

// Place is what the options of one placement share whatever their start.
// Places are interned: every option of a placement points at one Place, which
// is never written once made.
type Place struct {
	// Key identifies the placement independent of start time ("pref", "any",
	// "rack:r3"), used to match choices across cycles for warm starts.
	Key string
	// Preferred marks the fast placement.
	Preferred bool
}

// The placements every Generator offers alike; like every Place, never
// written.
var (
	placeAny      = &Place{Key: "any", Preferred: true}
	placeFallback = &Place{Key: "any"}
	placeGPU      = &Place{Key: "pref", Preferred: true}
	placeData     = &Place{Key: "data", Preferred: true}
)

// Option is one (placement, start) choice offered to the solver.
type Option struct {
	// Place is the option's placement, shared with the placement's other
	// starts; Key and Preferred read through it.
	*Place
	// EstDur is the believed runtime in seconds on this placement.
	EstDur int64
	// Leaf is the compiled STRL leaf; its Start is the option's start slice
	// within this cycle's window.
	Leaf strl.NCk
}

// Request is a generated job request: the expression handed to the compiler
// plus the option list used for decoding and warm starts.
type Request struct {
	Job *workload.Job
	// Expr is the lone option's leaf, or a MAX whose kids are the options'
	// leaves in option order: it points into Options.
	Expr    strl.Expr
	Options []Option
	// Nodes is the union of the options' leaf sets: every node the job could
	// be placed on this cycle. Two requests whose Nodes are disjoint share no
	// supply, whatever the solver does. It may be one of the leaf sets itself;
	// read-only.
	Nodes *bitset.Set
	// Rev counts Reprice and Recycle calls. The leaves are re-priced, and
	// Options, Expr and Nodes trimmed, in place, and a trim moves the leaves
	// that are left to other addresses; a recycled request is issued again,
	// for another job. So whoever keeps something derived from a request keeps
	// the Rev it was derived at beside the pointer: no pointer is ever issued
	// twice at one Rev.
	Rev uint32

	max strl.Max // Expr when there are several options
}

// OptionFor returns the option owning the given leaf, if any.
func (r *Request) OptionFor(leaf strl.Expr) *Option {
	for i := range r.Options {
		if o := &r.Options[i]; strl.Expr(&o.Leaf) == leaf {
			return o
		}
	}
	return nil
}

// point makes Expr the options' leaves: the lone one itself, or the MAX over
// all of them in option order. The MAX's kids keep the memory they had either
// way, for a request issued again with several options.
func (r *Request) point() {
	if len(r.Options) == 1 {
		r.Expr, r.max.Kids = &r.Options[0].Leaf, r.max.Kids[:0]
		return
	}
	kids := slices.Grow(r.max.Kids[:0], len(r.Options))
	for i := range r.Options {
		kids = append(kids, &r.Options[i].Leaf)
	}
	r.Expr, r.max.Kids = &r.max, kids
}

// Generator emits STRL requests for one cluster. It is not safe for
// concurrent use: it enumerates a job's placements into a buffer of its own,
// interns the Places of elastic widths as it first meets them, and issues
// recycled requests again.
type Generator struct {
	cfg    Config
	c      *cluster.Cluster
	all    *bitset.Set
	gpus   *bitset.Set
	racks  []placement // one per rack, in the cluster's rack order
	widths []*Place    // widths[w] is the elastic width-w Place, once met
	places []placement // the placements of the job being generated
	free   []*Request  // recycled requests, issued again before any is made
}

// New builds a Generator.
func New(c *cluster.Cluster, cfg Config) *Generator {
	if cfg.Quantum <= 0 {
		panic("strlgen: quantum must be positive")
	}
	if cfg.PlanAheadSlices < 1 {
		cfg.PlanAheadSlices = 1
	}
	if cfg.MaxStartChoices < 1 {
		cfg.MaxStartChoices = 1
	}
	gk, gv := cluster.GPUAttr()
	g := &Generator{cfg: cfg, c: c, all: c.All(), gpus: c.WithAttr(gk, gv)}
	racks := c.Racks()
	places := make([]Place, len(racks))
	for i, r := range racks {
		places[i] = Place{Key: "rack:" + r, Preferred: true}
		g.racks = append(g.racks, placement{place: &places[i], set: c.Rack(r)})
	}
	return g
}

// placement is an internal placement candidate.
type placement struct {
	place *Place
	set   *bitset.Set
	width int // gang width; 0 means the job's full K
}

// widthPlace is the interned Place of the elastic gang width w.
func (g *Generator) widthPlace(w int) *Place {
	if w >= len(g.widths) {
		g.widths = append(g.widths, make([]*Place, w+1-len(g.widths))...)
	}
	if g.widths[w] == nil {
		g.widths[w] = &Place{Key: fmt.Sprintf("any-w%d", w), Preferred: true}
	}
	return g.widths[w]
}

// placements enumerates the candidate placements for a job type, in the
// Generator's buffer.
func (g *Generator) placements(j *workload.Job) []placement {
	g.places = g.appendPlacements(g.places[:0], j)
	return g.places
}

func (g *Generator) appendPlacements(out []placement, j *workload.Job) []placement {
	if g.cfg.NoHeterogeneity {
		if j.Type == workload.Unconstrained {
			return append(out, placement{place: placeAny, set: g.all})
		}
		return append(out, placement{place: placeFallback, set: g.all})
	}
	switch j.Type {
	case workload.Elastic:
		// Space-time elasticity (§4.1): offer a few gang widths as MAX
		// alternatives; narrower widths run proportionally longer.
		lo, hi := j.WidthRange()
		for i, m := range [...]int{hi, (lo + hi) / 2, lo} {
			if i == 0 || m < out[len(out)-1].width {
				out = append(out, placement{place: g.widthPlace(m), set: g.all, width: m})
			}
		}
		return out
	case workload.GPU:
		if g.gpus.Count() >= j.K {
			out = append(out, placement{place: placeGPU, set: g.gpus})
		}
		out = append(out, placement{place: placeFallback, set: g.all})
		return out
	case workload.DataLocal:
		if len(j.DataNodes) >= j.K {
			set := bitset.New(g.c.N())
			for _, n := range j.DataNodes {
				if n >= 0 && n < g.c.N() {
					set.Add(n)
				}
			}
			if set.Count() >= j.K {
				out = append(out, placement{place: placeData, set: set})
			}
		}
		out = append(out, placement{place: placeFallback, set: g.all})
		return out
	case workload.MPI:
		max := g.cfg.MaxRackChoices
		if max <= 0 || max > len(g.racks) {
			max = len(g.racks)
		}
		// Rotate the rack window by job ID: each job sees a bounded number of
		// equivalent rack options (they are interchangeable from the job's
		// perspective, §4.2) while the job population covers every rack.
		for i := 0; i < len(g.racks) && max > 0; i++ {
			if p := g.racks[(i+j.ID)%len(g.racks)]; p.set.Count() >= j.K {
				out = append(out, p)
				max--
			}
		}
		out = append(out, placement{place: placeFallback, set: g.all})
		return out
	default:
		return append(out, placement{place: placeAny, set: g.all})
	}
}

// value applies the Fig 5 value functions for a completion at time
// `completion` (absolute seconds), scaled by the job's priority. Zero means
// the option is worthless and is culled.
func (g *Generator) value(j *workload.Job, completion int64) float64 {
	return g.priority(j) * g.baseValue(j, completion)
}

func (g *Generator) priority(j *workload.Job) float64 {
	if j.Priority > 0 {
		return j.Priority
	}
	return 1
}

func (g *Generator) baseValue(j *workload.Job, completion int64) float64 {
	switch {
	case j.Class == workload.SLO && j.Reserved:
		if completion <= j.Deadline {
			return g.cfg.ValueAcceptedSLO
		}
		return 0
	case j.Class == workload.SLO:
		if completion <= j.Deadline {
			return g.cfg.ValueSLONoRes
		}
		return 0
	default:
		frac := 1 - float64(completion-j.Submit)/float64(g.cfg.BEDecay)
		v := g.cfg.ValueBE * frac
		if v < g.cfg.BEFloor {
			v = g.cfg.BEFloor
		}
		return v
	}
}

// Generate builds the job's request for the cycle starting at `now`.
// It returns nil when the job has no option of positive value — for an SLO
// job that means its deadline can no longer be met under current estimates
// and the scheduler should cull it (it will never regain value).
func (g *Generator) Generate(now int64, j *workload.Job) *Request {
	req, _ := g.GenerateTTL(now, j)
	return req
}

// price is the one value expression: what the option of starting at slice s
// and running est seconds is worth to the cycle at `now` — the Fig 5 value of
// its completion time, shaded toward earlier completion — and that completion
// time. Zero or less means the option is worthless and is culled.
func (g *Generator) price(now int64, j *workload.Job, s, est int64) (v float64, completion int64) {
	completion = now + s*g.cfg.Quantum + est
	v = g.value(j, completion)
	if v <= 0 {
		return v, completion
	}
	delaySlices := float64(completion-now) / float64(g.cfg.Quantum)
	factor := 1 - g.cfg.EarlinessEps*delaySlices
	if factor < 0.1 {
		factor = 0.1
	}
	return v * factor, completion
}

// optionTTL returns the largest cycle time now' at which Generate(now', j)
// would still emit this option with the same value. Option enumeration is
// otherwise a pure function of the job, so the minimum over a request's
// options bounds how long the whole request stays byte-identical:
//
//   - SLO (reserved or not): the value is a constant while the completion
//     meets the deadline, and the option is culled the first cycle it
//     cannot, so the bound is the latest now' with
//     now' + (completion-now) <= Deadline.
//   - Best-effort on the BEFloor clamp: the raw linearly-decayed value has
//     already fallen to the floor, where it stays forever — never expires.
//   - Best-effort still decaying: the value moves every cycle; valid only
//     at `now` itself.
func (g *Generator) optionTTL(now int64, j *workload.Job, completion int64) int64 {
	if j.Class == workload.SLO {
		return j.Deadline - (completion - now)
	}
	raw := g.cfg.ValueBE * (1 - float64(completion-j.Submit)/float64(g.cfg.BEDecay))
	if raw <= g.cfg.BEFloor && g.cfg.BEFloor > 0 {
		return math.MaxInt64
	}
	return now
}

// Reprice brings a request priced for an earlier cycle to the cycle at `now`,
// in place, and Rev moves on: the result is GenerateTTL(now, req.Job) bit for
// bit, in the memory the old one had. Every leaf takes the value the same
// expression gives it, and the options with no value left are cut out, Nodes
// and Expr following. Values only fall with time, so no option can have
// appeared and each placement keeps a prefix of its starts; `now` must not be
// earlier than the cycle the request was last priced for. It returns the new
// expiry bound, and false when no option is left, which is when GenerateTTL
// returns nil: the job is to be dropped.
func (g *Generator) Reprice(now int64, req *Request) (validUntil int64, ok bool) {
	req.Rev++
	validUntil = math.MaxInt64
	n := 0
	for i := range req.Options {
		o := &req.Options[i]
		v, completion := g.price(now, req.Job, o.Leaf.Start, o.EstDur)
		if v <= 0 {
			continue // deadline culling, §3.2.1
		}
		o.Leaf.Value = v
		validUntil = min(validUntil, g.optionTTL(now, req.Job, completion))
		if n != i {
			req.Options[n] = *o
		}
		n++
	}
	if n == len(req.Options) && n > 0 {
		return validUntil, true
	}
	clear(req.Options[n:])
	req.Options = req.Options[:n]
	if n == 0 {
		return now, false
	}
	var nodes nodeUnion
	for i := n - 1; i >= 0; i-- { // last first, as GenerateTTL adds placements
		nodes.add(req.Options[i].Leaf.Set)
	}
	req.Nodes = nodes.set
	req.point()
	return validUntil, true
}

// GenerateTTL is Generate plus an expiry bound for the scheduler's per-job
// expression cache: the returned validUntil is the largest cycle time now'
// (now' >= now) for which Generate(now', j) returns a request with identical
// options, values, and structure, so the caller may reuse this request —
// including its leaf pointers, which downstream caches key on — for any
// cycle at or before validUntil. A nil request carries validUntil = now.
func (g *Generator) GenerateTTL(now int64, j *workload.Job) (*Request, int64) {
	if j.K <= 0 || j.K > g.all.Count() {
		return nil, now // unsatisfiable on this cluster
	}
	placements := g.placements(j)
	// Count the options before building any, so that the options, their
	// leaves inside, and the MAX's kids pointing at those are one exactly sized
	// allocation each, however many options the job has. Nothing here is ever
	// regrown, which is also what keeps the leaf pointers stable.
	n := 0
	var nodes nodeUnion // last placement first: the fallback, which holds the rest
	for i := len(placements) - 1; i >= 0; i-- {
		if k := g.valuedStarts(now, j, g.startPlan(j, placements[i], len(placements))); k > 0 {
			n += k
			nodes.add(placements[i].set)
		}
	}
	if n == 0 {
		return nil, now
	}
	validUntil := int64(math.MaxInt64)
	req := g.reissue(n)
	req.Job, req.Nodes = j, nodes.set
	for _, p := range placements {
		pl := g.startPlan(j, p, len(placements))
		for s := int64(0); s < g.cfg.PlanAheadSlices; s += pl.stride {
			v, completion := g.price(now, j, s, pl.est)
			if v <= 0 {
				// Later starts only complete later; stop enumerating this
				// placement (deadline culling, §3.2.1).
				break
			}
			validUntil = min(validUntil, g.optionTTL(now, j, completion))
			req.Options = append(req.Options, Option{
				Place:  p.place,
				EstDur: pl.est,
				Leaf:   strl.NCk{Set: p.set, K: pl.width, Start: s, Dur: pl.durSlices, Value: v},
			})
		}
	}
	req.point()
	return req, validUntil
}

// Recycle hands back a request nothing reads any more, for GenerateTTL to
// issue again, to any job, with its memory: the options and, if it has
// several, the MAX's kids. Rev moves on, so the request issued again is not,
// at any Rev, the one handed back. The caller lets go of req.
func (g *Generator) Recycle(req *Request) {
	clear(req.Options)
	req.Job, req.Expr, req.Options, req.Nodes = nil, nil, req.Options[:0], nil
	req.Rev++
	g.free = append(g.free, req)
}

// reissue returns a request for n options, with no job: the recycled one
// whose options fit n most tightly, or, when none does, the smallest
// recycled one with new memory for them, or a new one when none is recycled.
// So the free list never holds more requests than were ever issued at once.
func (g *Generator) reissue(n int) *Request {
	if len(g.free) == 0 {
		return &Request{Options: make([]Option, 0, n)}
	}
	best := 0
	for i, r := range g.free {
		c, b := cap(r.Options), cap(g.free[best].Options)
		// One that fits beats one that does not; else the smaller wins.
		if fits, bestFits := c >= n, b >= n; fits != bestFits && fits || fits == bestFits && c < b {
			best = i
		}
	}
	req := g.free[best]
	last := len(g.free) - 1
	g.free[best], g.free[last] = g.free[last], nil
	g.free = g.free[:last]
	if cap(req.Options) < n {
		req.Options = make([]Option, 0, n)
	}
	return req
}

// nodeUnion accumulates the union of placement sets. It is one of them for as
// long as one holds all the others (the usual case: a job's placements are one
// set, or nest under the whole-cluster fallback), and a set of its own, grown
// in place, only once two of them straddle.
type nodeUnion struct {
	set   *bitset.Set
	owned bool
}

func (u *nodeUnion) add(s *bitset.Set) {
	switch {
	case u.set == nil || u.set == s || u.set.SubsetOf(s):
		u.set, u.owned = s, false
	case s.SubsetOf(u.set):
	case u.owned:
		u.set.UnionWith(s)
	default:
		u.set, u.owned = u.set.Union(s), true
	}
}

// startPlan is how one placement's start options are enumerated: every
// stride-th slice of the window, each a gang of width nodes believed to run
// for est seconds (durSlices slices).
type startPlan struct {
	stride    int64
	width     int
	est       int64
	durSlices int64
}

// startPlan works out placement p's enumeration for the job; nPlacements is
// how many placements the job has, a lone one never being a fallback.
func (g *Generator) startPlan(j *workload.Job, p placement, nPlacements int) startPlan {
	budget := g.cfg.MaxStartChoices
	if !p.place.Preferred && nPlacements > 1 && g.cfg.FallbackStartChoices > 0 {
		budget = g.cfg.FallbackStartChoices
	}
	if budget < 1 {
		budget = 1
	}
	pl := startPlan{stride: 1, width: j.K, est: j.EstRuntime(p.place.Preferred)}
	if int(g.cfg.PlanAheadSlices) > budget {
		pl.stride = (g.cfg.PlanAheadSlices + int64(budget) - 1) / int64(budget)
	}
	if p.width > 0 {
		pl.width = p.width
	}
	if p.width > 0 && p.width < j.K {
		// Elastic width scaling on the believed runtime.
		pl.est = (pl.est*int64(j.K) + int64(p.width) - 1) / int64(p.width)
	}
	if g.cfg.NoHeterogeneity && j.Type != workload.Unconstrained && j.Type != workload.Elastic {
		// NH plans conservatively with the slowed estimate (§6.3).
		pl.est = j.EstRuntime(false)
	}
	pl.durSlices = (pl.est + g.cfg.Quantum - 1) / g.cfg.Quantum
	return pl
}

// valuedStarts counts the start options GenerateTTL emits for a placement:
// the strided starts up to the first whose completion has no value left.
func (g *Generator) valuedStarts(now int64, j *workload.Job, pl startPlan) int {
	n := 0
	for s := int64(0); s < g.cfg.PlanAheadSlices; s += pl.stride {
		if g.value(j, now+s*g.cfg.Quantum+pl.est) <= 0 {
			break
		}
		n++
	}
	return n
}

// String describes the generator configuration.
func (g *Generator) String() string {
	return fmt.Sprintf("strlgen{quantum=%ds window=%d slices noHet=%v}",
		g.cfg.Quantum, g.cfg.PlanAheadSlices, g.cfg.NoHeterogeneity)
}
