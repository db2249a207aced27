package replaylog

import (
	"encoding/base64"
	"encoding/json"
	"strconv"

	"dyncg/internal/api"
)

// appendRecord appends json.Marshal's encoding of rec to dst, written
// field by field without reflection: the fields in declaration order,
// omitempty honoured, strings escaped as encoding/json escapes them
// (HTML-safe, U+2028/U+2029, invalid UTF-8 as U+FFFD), request_bin in
// standard base64. A raw body flagged in known, or that verbatim finds
// already compact with nothing to escape, is copied as is; any other
// body takes one json.Marshal compaction pass, which also words the
// error for a body that is not JSON. VerifyChain re-encodes records
// with json.Marshal, so it checks these bytes independently.
func appendRecord(dst []byte, rec *api.ReplayRecord, known Embedded) ([]byte, error) {
	var err error
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(rec.V), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, rec.Seq, 10)
	if rec.Time != "" {
		dst = appendString(append(dst, `,"time":`...), rec.Time)
	}
	if rec.Method != "" {
		dst = appendString(append(dst, `,"method":`...), rec.Method)
	}
	if rec.Path != "" {
		dst = appendString(append(dst, `,"path":`...), rec.Path)
	}
	if rec.Status != 0 {
		dst = strconv.AppendInt(append(dst, `,"status":`...), int64(rec.Status), 10)
	}
	dst = appendMeta(append(dst, `,"meta":`...), &rec.Meta)
	if len(rec.Request) > 0 {
		if dst, err = appendRaw(append(dst, `,"request":`...), rec.Request, known&RequestEmbedded != 0); err != nil {
			return nil, err
		}
	}
	if len(rec.RequestBin) > 0 {
		dst = append(dst, `,"request_bin":"`...)
		dst = append(base64.StdEncoding.AppendEncode(dst, rec.RequestBin), '"')
	}
	if len(rec.Response) > 0 {
		if dst, err = appendRaw(append(dst, `,"response":`...), rec.Response, known&ResponseEmbedded != 0); err != nil {
			return nil, err
		}
	}
	if rec.Anchor {
		dst = append(dst, `,"anchor":true`...)
	}
	if rec.Count != 0 {
		dst = strconv.AppendUint(append(dst, `,"count":`...), rec.Count, 10)
	}
	if rec.Root != "" {
		dst = appendString(append(dst, `,"root":`...), rec.Root)
	}
	dst = appendString(append(dst, `,"prev":`...), rec.Prev)
	dst = appendString(append(dst, `,"hash":`...), rec.Hash)
	return append(dst, '}'), nil
}

// appendMeta appends the meta object. Every present field is written
// with a leading comma, and the first comma becomes the brace.
func appendMeta(dst []byte, m *api.ReplayMeta) []byte {
	open := len(dst)
	if m.Topology != "" {
		dst = appendString(append(dst, `,"topology":`...), m.Topology)
	}
	if m.PEs != 0 {
		dst = strconv.AppendInt(append(dst, `,"pes":`...), int64(m.PEs), 10)
	}
	if m.Workers != 0 {
		dst = strconv.AppendInt(append(dst, `,"workers":`...), int64(m.Workers), 10)
	}
	if m.FaultSeed != 0 {
		dst = strconv.AppendInt(append(dst, `,"fault_seed":`...), m.FaultSeed, 10)
	}
	if m.Session != "" {
		dst = appendString(append(dst, `,"session":`...), m.Session)
	}
	if m.Member != "" {
		dst = appendString(append(dst, `,"member":`...), m.Member)
	}
	if len(dst) == open {
		return append(dst, "{}"...)
	}
	dst[open] = '{'
	return append(dst, '}')
}

// appendString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash and the HTML-sensitive <, > and & is copied;
// any other string is encoded by json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendRaw appends a raw JSON body as json.Marshal embeds a
// json.RawMessage: compacted, with <, >, &, U+2028 and U+2029 escaped.
// embedded says b is known to be in that form already.
func appendRaw(dst, b []byte, embedded bool) ([]byte, error) {
	if embedded || verbatim(b) {
		return append(dst, b...), nil
	}
	c, err := json.Marshal(json.RawMessage(b))
	if err != nil {
		return nil, err
	}
	return append(dst, c...), nil
}

// maxVerbatimDepth bounds verbatim's recursion; deeper bodies take the
// json.Marshal pass, which applies encoding/json's own depth limit.
const maxVerbatimDepth = 256

// verbatim reports whether b is one JSON value that json.Marshal embeds
// byte for byte: valid, without whitespace outside strings, and without
// <, >, &, U+2028 or U+2029. It never accepts what json.Marshal would
// reject or rewrite; a false negative only costs the compaction pass.
func verbatim(b []byte) bool {
	i, ok := scanValue(b, 0, 0)
	return ok && i == len(b)
}

// scanValue scans the value starting at b[i] and returns the index
// after it.
func scanValue(b []byte, i, depth int) (int, bool) {
	if i >= len(b) {
		return i, false
	}
	switch c := b[i]; {
	case c == '{' || c == '[':
		if depth >= maxVerbatimDepth {
			return i, false
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		i++
		if i < len(b) && b[i] == end {
			return i + 1, true
		}
		for {
			ok := true
			if c == '{' {
				if i, ok = scanString(b, i); !ok || i >= len(b) || b[i] != ':' {
					return i, false
				}
				i++
			}
			if i, ok = scanValue(b, i, depth+1); !ok || i >= len(b) {
				return i, false
			}
			switch b[i] {
			case ',':
				i++
			case end:
				return i + 1, true
			default:
				return i, false
			}
		}
	case c == '"':
		return scanString(b, i)
	case c == '-' || '0' <= c && c <= '9':
		return scanNumber(b, i)
	case c == 't':
		return scanLiteral(b, i, "true")
	case c == 'f':
		return scanLiteral(b, i, "false")
	case c == 'n':
		return scanLiteral(b, i, "null")
	}
	return i, false
}

// scanString scans a string starting at its opening quote b[i].
func scanString(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return i, false
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c == '\\':
			i++
			if i >= len(b) {
				return i, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return i, false
				}
				i += 4
			default:
				return i, false
			}
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			return i, false
		case c == 0xe2 && i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xa8:
			return i, false
		}
	}
	return i, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanNumber scans a number of the JSON grammar starting at b[i].
func scanNumber(b []byte, i int) (int, bool) {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = scanDigits(b, i+1)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := scanDigits(b, i+1)
		if j == i+1 {
			return j, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := scanDigits(b, i)
		if j == i {
			return j, false
		}
		i = j
	}
	return i, true
}

func scanDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanLiteral scans the literal lit starting at b[i].
func scanLiteral(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}
