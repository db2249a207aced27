package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"dyncg/internal/api"
	"dyncg/internal/motion"
)

// opKind is what one generated operation asks of the daemon.
type opKind uint8

const (
	kSolve  opKind = iota // fresh one-shot request, never repeated
	kHot                  // one spelling of a hot-set request
	kBad                  // malformed body; must get a typed bad_request
	kCreate               // POST /v1/sessions
	kUpdate               // POST /v1/sessions/{id}/update
	kQuery                // GET /v1/sessions/{id}/query
	kVerify               // GET /v1/sessions/{id}/query?verify=1
	kDelete               // DELETE /v1/sessions/{id}
)

// op is one generated operation with everything needed to check its
// answer. One-shot ops carry the expectation computed by a direct
// facade call; session ops carry the point IDs the session must hold
// afterwards, which follow from the op stream alone because the engine
// assigns IDs sequentially and never reuses them.
type op struct {
	kind   opKind
	algo   string // one-shot endpoint
	body   []byte
	req    *api.Request // decoded one-shot request (nil for kBad)
	exp    *expect      // filled by the oracle before the timed window
	hot    int          // hot-set index of a kHot op
	slot   int          // lane-local session slot of a session op
	points []int        // live IDs after a session op
	insert []int        // IDs a kUpdate must report as inserted

	// The answer to a one-shot sent without an expectation, kept for
	// the check after the timed window.
	status int
	got    []byte
}

// oneShot builds a one-shot op for a fresh request.
func oneShot(kind opKind, algo string, req *api.Request) *op {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // api.Request of finite floats always marshals
	}
	return &op{kind: kind, algo: algo, body: body, req: req, hot: -1}
}

// randomRequest draws one request for endpoint e at size class cls on
// topology tp. Systems come from a sub-generator seeded by r, so the
// stream of requests is a pure function of r's seed.
func randomRequest(r *rand.Rand, e *endpoint, cls int, tp string, workers int) *api.Request {
	n := e.sizes[cls]
	sr := rand.New(rand.NewSource(r.Int63()))
	var sys *motion.System
	switch e.sys {
	case colliding:
		sys = motion.Converging(sr, n)
	case diverging:
		sys = motion.Diverging(sr, n)
	default:
		sys = motion.Random(sr, n, 1, 2, 10)
	}
	req := &api.Request{V: api.Version, System: wireSystem(sys)}
	if e.origin {
		req.Origin = r.Intn(n)
	}
	if e.dims {
		req.Dims = []float64{30 + float64(r.Intn(20)), 30 + float64(r.Intn(20))}
	}
	if e.name == "steady-nearest-neighbor" {
		req.Farthest = r.Intn(2) == 0
	}
	req.Options.Topology = tp
	req.Options.Workers = workers
	return req
}

var topologies = [2]string{"hypercube", "mesh"}

// combo is one (endpoint, size class, topology) cell of a one-shot mix.
type combo struct{ e, cls, tp int }

// comboOrder lists every cell with the given number of size classes in
// a fixed scrambled order. Streams walk it cyclically, so every seed
// sends the same mix of endpoints, sizes and topologies and only the
// systems differ: seed-to-seed spread then measures the daemon, not
// the luck of the draw.
func comboOrder(classes int) []combo {
	var cs []combo
	for e := range endpoints {
		for cls := 0; cls < classes; cls++ {
			for tp := range topologies {
				cs = append(cs, combo{e, cls, tp})
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

var (
	solveCombos  = comboOrder(3)
	uniqueCombos = comboOrder(2)
)

// solveOp is the i-th solve-mix request of a stream: the i-th cell of
// the cycle over 14 endpoints × 3 size classes × 2 topologies, with
// options.workers=2 on every tenth request.
func solveOp(r *rand.Rand, i int) *op {
	c := solveCombos[i%len(solveCombos)]
	workers := 0
	if i%10 == 9 {
		workers = 2
	}
	e := &endpoints[c.e]
	return oneShot(kSolve, e.name, randomRequest(r, e, c.cls, topologies[c.tp], workers))
}

// uniqueOp is the k-th fresh small request (size classes 0–1) of a
// cache-heavy mix: it misses the cache but costs little to compute.
func uniqueOp(r *rand.Rand, k int) *op {
	c := uniqueCombos[k%len(uniqueCombos)]
	e := &endpoints[c.e]
	return oneShot(kSolve, e.name, randomRequest(r, e, c.cls, topologies[c.tp], 0))
}

// hotSet is the 32 cacheable requests of hot-read, each in
// spellings that differ in bytes but not in canonical form.
type hotSet struct {
	ops [][]*op // [request][spelling]
}

const hotSize, hotSpellings = 32, 4

func newHotSet(r *rand.Rand) *hotSet {
	h := &hotSet{ops: make([][]*op, hotSize)}
	for i := range h.ops {
		// Fixed cells (every endpoint on both topologies); only the
		// systems depend on the seed.
		e := &endpoints[i%len(endpoints)]
		req := randomRequest(r, e, (i/7)%2, topologies[(i/len(endpoints)+i)%2], 0)
		for s := 0; s < hotSpellings; s++ {
			h.ops[i] = append(h.ops[i], &op{kind: kHot, algo: e.name, body: spell(req, s), req: req, hot: i})
		}
	}
	return h
}

func (h *hotSet) pick(r *rand.Rand) *op {
	return h.ops[r.Intn(hotSize)][r.Intn(hotSpellings)]
}

// spell writes req as JSON in one of four spellings with the same
// canonical form: 0 is encoding/json's; 1 appends a trailing zero
// coefficient to every polynomial; 2 writes every coefficient in
// exponent notation; 3 reverses the key order, indents, and combines 1
// and 2.
func spell(req *api.Request, style int) []byte {
	if style == 0 {
		b, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		return b
	}
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	if style >= 2 {
		num = func(f float64) string { return strconv.FormatFloat(f, 'e', -1, 64) }
	}
	var sys strings.Builder
	sys.WriteByte('[')
	for i, pt := range req.System {
		if i > 0 {
			sys.WriteByte(',')
		}
		sys.WriteByte('[')
		for j, cf := range pt {
			if j > 0 {
				sys.WriteByte(',')
			}
			sys.WriteByte('[')
			for k, c := range cf {
				if k > 0 {
					sys.WriteByte(',')
				}
				sys.WriteString(num(c))
			}
			if style != 2 {
				if len(cf) > 0 {
					sys.WriteByte(',')
				}
				sys.WriteString("0")
			}
			sys.WriteByte(']')
		}
		sys.WriteByte(']')
	}
	sys.WriteByte(']')

	fields := []string{`"v":` + strconv.Itoa(req.V), `"system":` + sys.String()}
	if req.Origin != 0 {
		fields = append(fields, `"origin":`+strconv.Itoa(req.Origin))
	}
	if req.Farthest {
		fields = append(fields, `"farthest":true`)
	}
	if len(req.Dims) > 0 {
		ds := make([]string, len(req.Dims))
		for i, d := range req.Dims {
			ds[i] = num(d)
		}
		fields = append(fields, `"dims":[`+strings.Join(ds, ",")+`]`)
	}
	var opts []string
	if req.Options.Topology != "" {
		opts = append(opts, `"topology":`+strconv.Quote(req.Options.Topology))
	}
	if req.Options.Workers != 0 {
		opts = append(opts, `"workers":`+strconv.Itoa(req.Options.Workers))
	}
	sep := ","
	if style == 3 {
		for i, j := 0, len(fields)-1; i < j; i, j = i+1, j-1 {
			fields[i], fields[j] = fields[j], fields[i]
		}
		for i, j := 0, len(opts)-1; i < j; i, j = i+1, j-1 {
			opts[i], opts[j] = opts[j], opts[i]
		}
		fields = append([]string{`"options":{` + strings.Join(opts, ", ") + `}`}, fields...)
		sep = ",\n  "
		return []byte("{\n  " + strings.Join(fields, sep) + "\n}")
	}
	fields = append(fields, `"options":{`+strings.Join(opts, ",")+`}`)
	return []byte("{" + strings.Join(fields, sep) + "}")
}

// badOp is a malformed body the server must answer with a typed 400
// bad_request envelope: a truncated valid request, a type mismatch, or
// bytes that are not JSON at all.
func badOp(r *rand.Rand) *op {
	e := &endpoints[r.Intn(len(endpoints))]
	var body []byte
	switch r.Intn(3) {
	case 0:
		full, err := json.Marshal(randomRequest(r, e, 0, topologies[r.Intn(2)], 0))
		if err != nil {
			panic(err)
		}
		body = full[:1+r.Intn(len(full)-2)]
	case 1:
		body = []byte(fmt.Sprintf(`{"v":1,"system":"%d"}`, r.Intn(1000)))
	default:
		body = []byte(fmt.Sprintf("not json %d", r.Intn(1000)))
	}
	return &op{kind: kBad, algo: e.name, body: body, hot: -1}
}
