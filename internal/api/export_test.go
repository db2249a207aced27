package api

// FastDecode runs DecodeRequest's fast path alone and reports whether
// it accepted raw.
func FastDecode(raw []byte, req *Request) bool {
	*req = Request{}
	d := decoder{b: raw}
	return d.request(req)
}
