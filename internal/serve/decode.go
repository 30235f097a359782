package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// /classify ingress. A 16-sample POST is 131 KB of JSON floats, and pushing
// it through encoding/json's reflective decoder cost several times the
// engine call it feeds. The body is instead read once into a pooled byte
// buffer and parsed in one pass by decodeClassifyFast, which knows exactly
// one grammar — what real clients send:
//
//	{ "input": [n, ...], "inputs": [[n, ...], ...], "deadline_ms": int }
//
// with any subset of those exact-case, unescaped keys, each at most once,
// in any order, JSON whitespace anywhere. Everything else — null, unknown /
// duplicate / case-folded / escaped keys, a non-integer deadline, float32
// overflow, more than maxInputsPerRequest rows, malformed or truncated
// bytes — is not this file's business: decodeClassify hands the same bytes
// to json.Unmarshal, so those requests get encoding/json's answer and
// encoding/json's error text. The fast path must therefore agree with
// encoding/json wherever it accepts; FuzzClassifyDecode holds it to that,
// Float32bits for Float32bits.
//
// Ownership: the byte buffer goes back to the pool as soon as the parse is
// done (parsed values never alias it). The floats land in one flat block
// per request that "input" and every "inputs" row sub-slice; that block is
// never recycled, because after ClassifyCtx returns on a context expiry a
// worker may still copy the abandoned sample out of it.

// maxPooledBody bounds both the buffer pre-sized from a (client-supplied)
// Content-Length and the buffers the pool keeps; larger bodies grow as
// their bytes actually arrive and are left to the GC.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r's body, at most limit bytes of it, into a pooled buffer
// the caller hands back with releaseBody. On failure it returns the HTTP
// status to answer with: 413 when the body is over the limit — declared by
// Content-Length, before a byte is read, or discovered while reading a
// chunked one — and 400 for any other read error.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, int, error) {
	if r.ContentLength > limit {
		return nil, http.StatusRequestEntityTooLarge, &http.MaxBytesError{Limit: limit}
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	// ReadFrom wants MinRead spare bytes to see EOF without regrowing.
	buf.Grow(int(min(max(r.ContentLength, 0)+bytes.MinRead, maxPooledBody)))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		releaseBody(buf)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, status, err
	}
	return buf, 0, nil
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeClassify decodes a /classify body: the single-pass fast path when
// the body is inside its grammar (fast reports which), encoding/json
// otherwise.
func decodeClassify(body []byte) (_ classifyRequest, fast bool, _ error) {
	if req, ok := decodeClassifyFast(body); ok {
		return req, true, nil
	}
	var req classifyRequest // declared here, not as a result: &req escapes, and only this path should pay for it
	err := json.Unmarshal(body, &req)
	return req, false, err
}

// Keys the fast path has seen, for duplicate detection.
const (
	seenInput = 1 << iota
	seenInputs
	seenDeadline
)

var (
	keyInput    = []byte(`"input"`)
	keyInputs   = []byte(`"inputs"`)
	keyDeadline = []byte(`"deadline_ms"`)
)

// decodeClassifyFast parses a body of the grammar above; ok is false for
// any body outside it, valid JSON or not.
func decodeClassifyFast(b []byte) (req classifyRequest, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, skipSpace(b, i+1) == len(b)
	}
	// Every number but the first of its array follows a comma, and so does
	// every array but the first, so commas+1 bounds the numbers of any body
	// accepted below (as does one per two bytes). Sized once, the block
	// never regrows, so the row sub-slices handed out stay valid; parseRow
	// treats a full block as outside the grammar.
	block := make([]float32, 0, min(bytes.Count(b, []byte{','})+1, len(b)/2))
	seen := 0
	for {
		rest := b[i:]
		switch {
		case bytes.HasPrefix(rest, keyInput):
			if i = colon(b, i+len(keyInput)); i < 0 || seen&seenInput != 0 {
				return req, false
			}
			seen |= seenInput
			at := len(block)
			if block, i, ok = parseRow(b, i, block); !ok {
				return req, false
			}
			req.Input = block[at:len(block):len(block)]
		case bytes.HasPrefix(rest, keyInputs):
			if i = colon(b, i+len(keyInputs)); i < 0 || seen&seenInputs != 0 || b[i] != '[' {
				return req, false
			}
			seen |= seenInputs
			// A 1025th row is outside the grammar: encoding/json counts
			// the rows for the handler's error text.
			req.Inputs = make([][]float32, 0, min(bytes.Count(rest, []byte{'['}), maxInputsPerRequest))
			more := true
			if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
				i, more = i+1, false
			}
			for more {
				if len(req.Inputs) == cap(req.Inputs) {
					return req, false
				}
				at := len(block)
				if block, i, ok = parseRow(b, i, block); !ok {
					return req, false
				}
				req.Inputs = append(req.Inputs, block[at:len(block):len(block)])
				if i, more, ok = separator(b, i, ']'); !ok {
					return req, false
				}
			}
		case bytes.HasPrefix(rest, keyDeadline):
			if i = colon(b, i+len(keyDeadline)); i < 0 || seen&seenDeadline != 0 {
				return req, false
			}
			seen |= seenDeadline
			if req.DeadlineMs, i, ok = parseSmallInt(b, i); !ok {
				return req, false
			}
		default:
			return req, false
		}
		var more bool
		if i, more, ok = separator(b, i, '}'); !ok {
			return req, false
		}
		if !more {
			return req, skipSpace(b, i) == len(b)
		}
	}
}

// separator steps over what follows a list item at b[i]: a comma (more
// items follow; next is the first byte of the next one) or the closing
// byte. ok is false for anything else.
func separator(b []byte, i int, closer byte) (next int, more, ok bool) {
	if i = skipSpace(b, i); i >= len(b) {
		return i, false, false
	}
	switch b[i] {
	case ',':
		return skipSpace(b, i+1), true, true
	case closer:
		return i + 1, false, true
	}
	return i, false, false
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// colon steps over the ':' expected at or after b[i] and returns the index
// of the value's first byte, or -1.
func colon(b []byte, i int) int {
	if i = skipSpace(b, i); i >= len(b) || b[i] != ':' {
		return -1
	}
	if i = skipSpace(b, i+1); i >= len(b) {
		return -1
	}
	return i
}

// parseRow appends the numbers of the array starting at b[i] to block and
// returns the index after its ']'.
func parseRow(b []byte, i int, block []float32) ([]float32, int, bool) {
	if i >= len(b) || b[i] != '[' {
		return block, i, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return block, i + 1, true
	}
	for more := true; more; {
		f, j, ok := parseFloat32(b, i)
		if !ok || len(block) == cap(block) {
			return block, i, false
		}
		block = append(block, f)
		if i, more, ok = separator(b, j, ']'); !ok {
			return block, i, false
		}
	}
	return block, i, true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat32 parses the JSON number starting at b[i] to the float32
// encoding/json would store for it — the one nearest the decimal, ties to
// even, which is strconv.ParseFloat(s, 32) — and returns the index after
// it. ok is false when the bytes are not a JSON number or the value
// overflows float32.
//
// Number contract: digits m and decimal exponent e with m < 2^53 and
// |e| ≤ 22 are both exact in float64, so one multiply or divide yields d,
// the float64 nearest the decimal. float32(d) is then the float32 nearest
// the decimal too — rounding is monotonic, so d and the decimal lie on the
// same side of every float32 rounding boundary — unless d sits exactly on
// such a boundary (low 29 mantissa bits 1000…0), where the decimal may lie
// on either side. That case, results outside float32's normal range (whose
// boundaries sit elsewhere), longer digit strings and larger exponents all
// go to strconv.ParseFloat on the validated token instead.
func parseFloat32(b []byte, i int) (f float32, next int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		m   uint64 // the digits, as an integer
		nd  int    // digits from the first non-zero one; m is exact while nd ≤ 19
		exp int    // value = m × 10^exp
	)
	switch {
	case i >= len(b):
		return 0, start, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			m = m*10 + uint64(b[i]-'0')
			nd++
		}
	default:
		return 0, start, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 { // 0.000…: zeros that are not yet significant
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		sig := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if i == frac {
			return 0, start, false
		}
		nd += i - sig
		exp = frac - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		digits := i
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, start, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if nd <= 19 && m < 1<<53 && -22 <= exp && exp <= 22 {
		d := float64(m)
		if exp < 0 {
			d /= pow10[-exp]
		} else {
			d *= pow10[exp]
		}
		onBoundary := math.Float64bits(d)&(1<<29-1) == 1<<28
		if m == 0 || (d >= 0x1p-126 && d <= math.MaxFloat32 && !onBoundary) {
			if neg {
				d = -d
			}
			return float32(d), i, true
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 32)
	return float32(v), i, err == nil
}

// parseSmallInt parses a JSON integer of at most nine digits — what a
// deadline in milliseconds needs, and what fits an int on every platform.
// Fractions, exponents and longer literals fail (encoding/json decides).
func parseSmallInt(b []byte, i int) (n, next int, ok bool) {
	neg := b[i] == '-'
	if neg {
		i++
	}
	digits := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + int(b[i]-'0')
		if i-digits >= 9 {
			return 0, i, false
		}
	}
	if i == digits || (b[digits] == '0' && i-digits > 1) {
		return 0, i, false // no digits, or a leading zero
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, i, false
	}
	if neg {
		n = -n
	}
	return n, i, true
}
