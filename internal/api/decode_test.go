package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// sameRequest reports where a and b differ, comparing floats by their
// bits and telling nil slices from empty ones ("" when they agree).
func sameRequest(a, b *Request) string {
	sameFloats := func(what string, x, y []float64) string {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return fmt.Sprintf("%s: %#v vs %#v", what, x, y)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Sprintf("%s[%d]: %v vs %v (bits)", what, i, x[i], y[i])
			}
		}
		return ""
	}
	if (a.System == nil) != (b.System == nil) || len(a.System) != len(b.System) {
		return fmt.Sprintf("system: %#v vs %#v", a.System, b.System)
	}
	for i := range a.System {
		p, q := a.System[i], b.System[i]
		if (p == nil) != (q == nil) || len(p) != len(q) {
			return fmt.Sprintf("system[%d]: %#v vs %#v", i, p, q)
		}
		for j := range p {
			if d := sameFloats(fmt.Sprintf("system[%d][%d]", i, j), p[j], q[j]); d != "" {
				return d
			}
		}
	}
	if d := sameFloats("dims", a.Dims, b.Dims); d != "" {
		return d
	}
	if a.V != b.V || a.Origin != b.Origin || a.Farthest != b.Farthest || a.Options != b.Options {
		return fmt.Sprintf("scalars: %+v vs %+v", *a, *b)
	}
	return ""
}

// checkDecode holds DecodeRequest to json.Unmarshal into a fresh
// Request: the same value, or the same error text. A body the fast
// path accepts must be valid JSON.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var got, want Request
	verbatim, gerr := DecodeRequest(body, &got)
	werr := json.Unmarshal(body, &want)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%q: DecodeRequest error %v, json.Unmarshal error %v", body, gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("%q: error text %q, want %q", body, gerr, werr)
	}
	if d := sameRequest(&got, &want); d != "" {
		t.Fatalf("%q: decoded value differs from json.Unmarshal: %s", body, d)
	}
	var fast Request
	if (&decoder{b: body}).request(&fast) && !json.Valid(body) {
		t.Fatalf("%q: fast path accepted a body that is not valid JSON", body)
	}
	if verbatim {
		if m, err := json.Marshal(json.RawMessage(body)); err != nil || !bytes.Equal(m, body) {
			t.Fatalf("%q: verbatim, but json.Marshal embeds it as %q (%v)", body, m, err)
		}
	}
}

// decodeCases are bodies at the edges of the fast path's subset, on
// both sides of it. FuzzDecodeRequest's committed corpus covers the
// hot-read spellings and the malformed families.
var decodeCases = []string{
	`{}`,
	` {"v":1} `,
	`{"v":1,"system":[]}`,
	`{"v":1,"system":[[]]}`,
	`{"v":1,"system":[[[]]]}`,
	`{"v":1,"system":[[[],[1]],[[0,-0],[-0.0]]],"dims":[]}`,
	`{"v":1,"system":[[[1e5,1E-5,-2.5e+3,0.1,123456789012345678901234567890]]]}`,
	`{"v":1,"system":[[[4.9e-324,1e-400,1.7976931348623157e308]]]}`,
	`{"v":1,"system":[[[1e400]]]}`,
	`{"v":1.0}`,
	`{"v":1e0}`,
	`{"v":-0}`,
	`{"v":9223372036854775808}`,
	`{"v":1,"origin":-9223372036854775808}`,
	`{"v":null}`,
	`{"system":null}`,
	`{"options":null}`,
	`{"dims":null}`,
	`{"V":1}`,
	`{"v":1,"v":2}`,
	`{"v":1,"options":{"pes":1,"pes":2}}`,
	`{"v":1,"unknown":3}`,
	`{"v":1,"options":{"topology":"mesh"}}`,
	`{"v":1,"options":{"topology":"mesh","faults":"transient=0.05,fail=1","fault_seed":-7,"trace":true,"cost_depth":2,"deadline_ms":100,"workers":-1}}`,
	`{"v":1,"options":{"topology":"réseau"}}`,
	`{"v":1,"options":{"topology":"a<b>&c"}}`,
	"{\"v\":1,\"options\":{\"topology\":\"\x7f\"}}",
	"{\"v\":1,\"options\":{\"topology\":\"caf\xc3\xa9\"}}",
	"{\"v\":1,\"options\":{\"topology\":\"\xff\"}}",
	`{"v":1,"farthest":true,"origin":2}`,
	`{"v":1,"farthest":tru}`,
	`{"v":1,"farthest":1}`,
	`{"v":1,"origin":01}`,
	`{"v":1,"system":[[[.5]]]}`,
	`{"v":1,"system":[[[1.]]]}`,
	`{"v":1,"system":[[[+1]]]}`,
	`{"v":1,"system":[[[1e]]]}`,
	`{"v":1,"system":[[[0x10]]]}`,
	`{"v":1,"system":[[[Infinity]]]}`,
	`{"v":1,"system":[[[1,]]]}`,
	`{"v":1,}`,
	`{"v":1} x`,
	`{"v":1}{}`,
	`{"v":1`,
	"\xef\xbb\xbf{\"v\":1}",
	``,
	` `,
	`[]`,
	`null`,
	`"v"`,
	"{\n\t\"options\" : { \"topology\" : \"hypercube\" } ,\r\n \"v\" : 1 , \"system\" : [ [ [ 1 , 2 ] , [ 3 ] ] ]\n}\n",
}

func TestDecodeRequestMatchesUnmarshal(t *testing.T) {
	for _, c := range decodeCases {
		checkDecode(t, []byte(c))
	}
}

// TestDecodeRequestVerbatim: json.Marshal's own encoding of a request
// is verbatim; whitespace anywhere, or an HTML character in a string,
// is not.
func TestDecodeRequestVerbatim(t *testing.T) {
	marshalled, err := json.Marshal(Request{V: Version, System: [][][]float64{{{1, 2.5}, {-3e-7}}},
		Dims: []float64{40}, Options: Options{Topology: "mesh", Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for body, want := range map[string]bool{
		string(marshalled):                         true,
		`{"v":1,"system":[[[1]]]}`:                 true,
		`{"v":1,"system":[[[1]]]} `:                false,
		`{"v":1, "system":[[[1]]]}`:                false,
		`{"v":1,"options":{"topology":"a&b"}}`:     false,
		`{"v":1,"options":{"topology":"a\u0026"}}`: false, // json.Unmarshal's path
	} {
		var req Request
		got, err := DecodeRequest([]byte(body), &req)
		if err != nil || got != want {
			t.Errorf("%s: verbatim = %v (%v), want %v", body, got, err, want)
		}
	}
}

// TestDecodeRequestOverwrites pins that *req is replaced, not merged
// into, on both paths.
func TestDecodeRequestOverwrites(t *testing.T) {
	for _, body := range []string{`{"v":1}`, `{"V":1}`} {
		req := Request{Origin: 5, Dims: []float64{1}, Options: Options{PEs: 3}}
		if _, err := DecodeRequest([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if d := sameRequest(&req, &Request{V: 1}); d != "" {
			t.Errorf("%s: %s", body, d)
		}
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}
