package api

import (
	"encoding/json"
	"strconv"
)

// DecodeRequest decodes the JSON body raw into *req, which it
// overwrites. The result and the error are exactly json.Unmarshal's
// into a fresh Request; the common case is served without reflection.
//
// The fast path is one pass over raw that accepts a strict subset of
// JSON: a top-level object of exact-case known keys, each at most once,
// followed only by whitespace; no null; strings without escapes and of
// bytes 0x20–0x7F; int fields in the integer grammar and in range
// (strconv.ParseInt); float fields in the JSON number grammar, parsed
// by strconv.ParseFloat(s, 64) as encoding/json parses them; [] as an
// empty, non-nil slice. A body it accepts is therefore valid JSON, and
// the Request it yields equals json.Unmarshal's bit for bit. Any other
// body — malformed, case-variant or duplicate keys, escapes, unknown
// keys, out-of-range numbers — goes to json.Unmarshal into a fresh
// Request, so it gets today's value or today's error text.
//
// verbatim reports that the fast path accepted raw and found it compact
// (no whitespace) with no <, > or & in its strings: raw is then
// byte for byte what json.Marshal embeds for it as a json.RawMessage,
// and a replay record may copy it without scanning it again. It is
// false for every body the fast path leaves to json.Unmarshal.
func DecodeRequest(raw []byte, req *Request) (verbatim bool, err error) {
	*req = Request{}
	d := decoder{b: raw}
	if d.request(req) {
		return !d.loose, nil
	}
	*req = Request{}
	return false, json.Unmarshal(raw, req)
}

// decoder is the fast path's cursor over a body. Every method returns
// false where the body leaves the accepted subset; the cursor is then
// meaningless and the caller falls back.
type decoder struct {
	b []byte
	i int
	// loose records that the body has whitespace or a string holding a
	// character json.Marshal escapes, so it is not verbatim.
	loose bool
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
			d.loose = true
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (d *decoder) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// more is called after an element of an object or array closed by
// end: it consumes a comma (true, another element follows) or end
// (false, with ok). Anything else is !ok.
func (d *decoder) more(end byte) (more, ok bool) {
	d.ws()
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case ',':
			d.i++
			return true, true
		case end:
			d.i++
			return false, true
		}
	}
	return false, false
}

// open consumes an opening bracket and reports whether the container
// is empty (its closing bracket consumed too).
func (d *decoder) open(begin, end byte) (empty, ok bool) {
	if !d.eat(begin) {
		return false, false
	}
	if d.eat(end) {
		return true, true
	}
	return false, true
}

// str consumes a string of bytes 0x20–0x7F without escapes and returns
// its contents, aliasing the body.
func (d *decoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c == '\\' || c < 0x20 || c > 0x7f:
			return nil, false
		case c == '<' || c == '>' || c == '&':
			d.loose = true
		}
	}
	return nil, false
}

// key consumes an object key and the colon after it.
func (d *decoder) key() ([]byte, bool) {
	k, ok := d.str()
	return k, ok && d.eat(':')
}

// number consumes a token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// it is an integer (no fraction, no exponent).
func (d *decoder) number() (tok []byte, integer, ok bool) {
	d.ws()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i, integer = j, false
	}
	d.i = i
	return b[start:i], integer, true
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float consumes a number into a float64 field.
func (d *decoder) float() (float64, bool) {
	tok, _, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// int64 consumes an integer into an int64 field.
func (d *decoder) int64() (int64, bool) {
	tok, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	return n, err == nil
}

// int consumes an integer into an int field.
func (d *decoder) int() (int, bool) {
	tok, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(n), err == nil
}

// bool consumes true or false.
func (d *decoder) bool() (v, ok bool) {
	d.ws()
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}

// string consumes a string into a string field.
func (d *decoder) string() (string, bool) {
	s, ok := d.str()
	return string(s), ok
}

// floats consumes an array of numbers, appending them to dst.
func (d *decoder) floats(dst []float64) ([]float64, bool) {
	empty, ok := d.open('[', ']')
	if !ok || empty {
		return dst, ok
	}
	for more := true; more; {
		f, ok := d.float()
		if !ok {
			return dst, false
		}
		dst = append(dst, f)
		if more, ok = d.more(']'); !ok {
			return dst, false
		}
	}
	return dst, true
}

// system consumes the point → coordinate → coefficient array. The
// coefficients land in one block and the coordinate slices in another,
// carved out once the shape is known; each slice's capacity is capped
// at its length, so appending to one never writes into the next.
func (d *decoder) system() ([][][]float64, bool) {
	empty, ok := d.open('[', ']')
	if !ok {
		return nil, false
	}
	if empty {
		return [][][]float64{}, true
	}
	// Shape bookkeeping: the coordinate count of each point and the
	// coefficient count of each coordinate, in order.
	var shapeBuf [256]int
	shape := shapeBuf[:0]
	coef := make([]float64, 0, len(d.b)/8)
	coords := 0
	for more := true; more; {
		empty, ok := d.open('[', ']')
		if !ok {
			return nil, false
		}
		at := len(shape)
		shape = append(shape, 0)
		for more := !empty; more; {
			n := len(coef)
			if coef, ok = d.floats(coef); !ok {
				return nil, false
			}
			shape = append(shape, len(coef)-n)
			shape[at]++
			if more, ok = d.more(']'); !ok {
				return nil, false
			}
		}
		coords += shape[at]
		if more, ok = d.more(']'); !ok {
			return nil, false
		}
	}
	pts := make([][][]float64, 0, len(shape)-coords)
	cs := make([][]float64, coords)
	c, k := 0, 0
	for j := 0; j < len(shape); j++ {
		nc := shape[j]
		pt := cs[c : c+nc : c+nc]
		for i := range pt {
			j++
			n := shape[j]
			pt[i] = coef[k : k+n : k+n]
			k += n
		}
		pts = append(pts, pt)
		c += nc
	}
	return pts, true
}

// object consumes an object whose values field decodes. field returns
// the key's bit in the set of known keys, or 0 for an unknown key; a
// repeated key leaves the subset.
func (d *decoder) object(field func(key []byte) (bit uint8, ok bool)) bool {
	empty, ok := d.open('{', '}')
	if !ok {
		return false
	}
	var seen uint8
	for more := !empty; more; {
		k, ok := d.key()
		if !ok {
			return false
		}
		bit, ok := field(k)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok = d.more('}'); !ok {
			return false
		}
	}
	return true
}

// options consumes the options object.
func (d *decoder) options(o *Options) bool {
	return d.object(func(k []byte) (bit uint8, ok bool) {
		switch string(k) {
		case "topology":
			o.Topology, ok = d.string()
			return 1 << 0, ok
		case "pes":
			o.PEs, ok = d.int()
			return 1 << 1, ok
		case "workers":
			o.Workers, ok = d.int()
			return 1 << 2, ok
		case "faults":
			o.Faults, ok = d.string()
			return 1 << 3, ok
		case "fault_seed":
			o.FaultSeed, ok = d.int64()
			return 1 << 4, ok
		case "trace":
			o.Trace, ok = d.bool()
			return 1 << 5, ok
		case "cost_depth":
			o.CostDepth, ok = d.int()
			return 1 << 6, ok
		case "deadline_ms":
			o.DeadlineMs, ok = d.int64()
			return 1 << 7, ok
		}
		return 0, false
	})
}

// request consumes the whole body: one object, then only whitespace.
func (d *decoder) request(req *Request) bool {
	ok := d.object(func(k []byte) (bit uint8, ok bool) {
		switch string(k) {
		case "v":
			req.V, ok = d.int()
			return 1 << 0, ok
		case "system":
			req.System, ok = d.system()
			return 1 << 1, ok
		case "origin":
			req.Origin, ok = d.int()
			return 1 << 2, ok
		case "farthest":
			req.Farthest, ok = d.bool()
			return 1 << 3, ok
		case "dims":
			req.Dims, ok = d.floats([]float64{})
			return 1 << 4, ok
		case "options":
			return 1 << 5, d.options(&req.Options)
		}
		return 0, false
	})
	d.ws()
	return ok && d.i == len(d.b)
}
