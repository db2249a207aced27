package api_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dyncg/internal/algo"
	"dyncg/internal/api"
	"dyncg/internal/motion"
)

// spell writes req as JSON in one of the four spellings the hot-read
// benchmark workload sends: 0 is encoding/json's; 1 appends a trailing
// zero coefficient to every polynomial; 2 writes every coefficient in
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
	if style == 3 {
		for i, j := 0, len(fields)-1; i < j; i, j = i+1, j-1 {
			fields[i], fields[j] = fields[j], fields[i]
		}
		for i, j := 0, len(opts)-1; i < j; i, j = i+1, j-1 {
			opts[i], opts[j] = opts[j], opts[i]
		}
		fields = append([]string{`"options":{` + strings.Join(opts, ", ") + `}`}, fields...)
		return []byte("{\n  " + strings.Join(fields, ",\n  ") + "\n}")
	}
	fields = append(fields, `"options":{`+strings.Join(opts, ",")+`}`)
	return []byte("{" + strings.Join(fields, ",") + "}")
}

// endpointRequest is a request to the named endpoint over a random
// planar system of n linear movers, with the fields that endpoint reads.
func endpointRequest(r *rand.Rand, name string, n int, topology string) *api.Request {
	sys := motion.Random(r, n, 1, 2, 10)
	req := &api.Request{V: api.Version, Origin: r.Intn(n)}
	for _, p := range sys.Points {
		var pt [][]float64
		for _, c := range p.Coord {
			pt = append(pt, algo.Coefs(c))
		}
		req.System = append(req.System, pt)
	}
	switch name {
	case "containment-intervals":
		req.Dims = []float64{30 + float64(r.Intn(20)), 30 + float64(r.Intn(20))}
	case "steady-nearest-neighbor":
		req.Farthest = r.Intn(2) == 0
	}
	req.Options.Topology = topology
	req.Options.Workers = r.Intn(3)
	return req
}

// TestFastPathAcceptsHotReadSpellings pins that the fast path itself —
// not the json.Unmarshal fallback — decodes all four spellings of every
// endpoint's request, and to the value json.Unmarshal gives.
func TestFastPathAcceptsHotReadSpellings(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, name := range algo.Names() {
		for _, tp := range []string{"hypercube", "mesh"} {
			req := endpointRequest(r, name, 6, tp)
			for style := 0; style < 4; style++ {
				body := spell(req, style)
				var fast, want api.Request
				if !api.FastDecode(body, &fast) {
					t.Fatalf("%s/%s spelling %d: fast path fell back on\n%s", name, tp, style, body)
				}
				if err := json.Unmarshal(body, &want); err != nil {
					t.Fatal(err)
				}
				a, _ := json.Marshal(fast)
				b, _ := json.Marshal(want)
				if string(a) != string(b) {
					t.Fatalf("%s/%s spelling %d: fast path %s, json.Unmarshal %s", name, tp, style, a, b)
				}
			}
		}
	}
}

// hotBodies is the decode benchmarks' input: every endpoint on both
// topologies in all four spellings, 16 points each.
func hotBodies() [][]byte {
	r := rand.New(rand.NewSource(1))
	var bodies [][]byte
	for _, name := range algo.Names() {
		for _, tp := range []string{"hypercube", "mesh"} {
			req := endpointRequest(r, name, 16, tp)
			for style := 0; style < 4; style++ {
				bodies = append(bodies, spell(req, style))
			}
		}
	}
	return bodies
}

// BenchmarkDecodeRequest decodes one body per op, cycling through
// hotBodies; BenchmarkUnmarshalRequest is the json.Unmarshal baseline
// over the same bodies.
func BenchmarkDecodeRequest(b *testing.B) {
	bodies := hotBodies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req api.Request
		if _, err := api.DecodeRequest(bodies[i%len(bodies)], &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalRequest(b *testing.B) {
	bodies := hotBodies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req api.Request
		if err := json.Unmarshal(bodies[i%len(bodies)], &req); err != nil {
			b.Fatal(err)
		}
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed fuzz seed corpus under testdata/fuzz")

// decodeCorpus is FuzzDecodeRequest's committed seed corpus: the four
// hot-read spellings of two requests, and the bodies the fast path must
// hand to json.Unmarshal — case-variant and duplicate keys, nulls, an
// out-of-range float, int fields written as floats, escapes, trailing
// bytes and truncations.
func decodeCorpus() [][]byte {
	r := rand.New(rand.NewSource(7))
	var seeds [][]byte
	for _, c := range []struct{ name, topo string }{{"containment-intervals", "mesh"}, {"steady-nearest-neighbor", "hypercube"}} {
		req := endpointRequest(r, c.name, 6, c.topo)
		for style := 0; style < 4; style++ {
			seeds = append(seeds, spell(req, style))
		}
	}
	full := seeds[0]
	for _, s := range []string{
		`{"V":1,"System":[[[0],[1]],[[2],[3]]],"Options":{"Topology":"mesh"}}`,
		`{"v":1,"system":[[[0]]],"system":[[[1],[2]]]}`,
		`{"v":1,"options":{"pes":64},"options":{"workers":2}}`,
		`{"v":1,"system":null,"dims":null,"options":null}`,
		`{"v":null,"origin":null,"farthest":null}`,
		`{"v":1,"system":[[[1e400,0]],[[1,2]]]}`,
		`{"v":1.0,"origin":2.0,"options":{"pes":64.0,"fault_seed":1e3}}`,
		`{"v":1,"options":{"topology":"h\u0079percube"}}`,
		`{"v":1,"system":[[[0],[1]]]} trailing`,
		string(full[:len(full)/2]),
		string(full[:len(full)-1]),
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestDecodeFuzzCorpus pins the committed seed corpus: -update-corpus
// regenerates testdata/fuzz/FuzzDecodeRequest, and the plain run
// requires the files to be present, so the CI fuzz-smoke job starts
// from them.
func TestDecodeFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeRequest")
	seeds := decodeCorpus()
	if *updateCorpus {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed fuzz corpus missing (regenerate with -update-corpus): %v", err)
	}
	if len(entries) != len(seeds) {
		t.Fatalf("corpus has %d entries, want %d (regenerate with -update-corpus)", len(entries), len(seeds))
	}
}
