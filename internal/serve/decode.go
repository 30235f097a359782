package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
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
// Numbers: parseRow takes a row in two stages. Stage 1 indexes its commas
// with SWAR byte compares, two words at a time; stage 2 (wordTokens) reads
// each token's -?digits(.digits)? mantissa of up to 16 bytes from the two
// words that end with it, with no branch per byte, and a short exponent
// after it. Any other token (whitespace around it, a longer literal)
// takes parseFloat32, the only fallback.
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

// rowChunk is how many numbers parseRow's two stages take at a time.
const rowChunk = 128

// parseRow appends the numbers of the array at b[i] to block and returns
// the index after its ']', up to rowChunk numbers at a time: stage 1
// (indexCommas) indexes their commas, stage 2 (wordTokens) parses the
// tokens the commas end, and parseFloat32 takes any token it declines. A
// nested value, string or literal leaves a non-number in some token.
func parseRow(b []byte, i int, block []float32) ([]float32, int, bool) {
	end := bytes.IndexByte(b[min(i, len(b)):], ']') + i
	if i >= len(b) || b[i] != '[' || end < i {
		return block, i, false
	} else if skipSpace(b, i+1) == end {
		return block, end + 1, true // []
	}
	var ends [rowChunk + 17]int // a step adds at most 16, the ']' one
	for tok, w := i+1, i+1; tok <= end; {
		var n int
		if n, w = indexCommas(b[:end], w, &ends); w >= end {
			ends[n], n = end, n+1
		}
		for j := 0; j < n; tok = ends[j-1] + 1 {
			k := 0
			if block, k = wordTokens(b, tok, ends[j:n], block); k == 0 {
				f, next, ok := parseFloat32(b, skipSpace(b, tok))
				if !ok || skipSpace(b, next) != ends[j] || len(block) == cap(block) {
					return block, ends[j], false
				}
				block, k = append(block, f), 1
			}
			j += k
		}
	}
	return block, end + 1, true
}

// indexCommas is stage 1: it writes the index of each comma in row[w:] to
// ends, two words at a time, until the row ends or rowChunk are written,
// and returns how many and where it stopped. A step writes two entries
// whatever it holds, so its usual one or two commas take no branch.
func indexCommas(row []byte, w int, ends *[rowChunk + 17]int) (int, int) {
	n := uint(0) // unsigned: n < rowChunk bounds the indexes
	for ; n < rowChunk && w < len(row); w += 16 {
		var lo, hi uint64
		if w+16 <= len(row) {
			win := row[w : w+16 : w+16]
			lo, hi = binary.LittleEndian.Uint64(win[:8]), binary.LittleEndian.Uint64(win[8:])
		} else { // the row's last bytes, zeros past them
			for j := len(row) - 1; j >= w; j-- {
				lo, hi = lo<<8|uint64(row[j]), hi<<8|lo>>56
			}
		}
		c := commaBits(lo) | commaBits(hi)<<8
		k := n + uint(bits.OnesCount64(c))
		ends[n], ends[n+1] = w+bits.TrailingZeros64(c), w+bits.TrailingZeros64(c&(c-1))
		for n, c = n+2, c&(c-1); n < k; n++ {
			c &= c - 1
			ends[n] = w + bits.TrailingZeros64(c)
		}
		n = k
	}
	return int(n), w
}

// SWAR constants: a byte repeated in a word's eight lanes.
const lanes, low7, high = 0x0101010101010101, 0x7f * lanes, 0x80 * lanes

// commaBits sets bit k where byte k of x is a comma: exact byte compares
// (no carry crosses a byte), their high bits gathered by one multiply.
func commaBits(x uint64) uint64 {
	t := x ^ lanes*','
	return ^((t&low7 + low7) | t) & high >> 7 * 0x0102040810204080 >> 56
}

// nonDigits sets the high bit of each byte of v above 9: exactly for the
// lowest; a byte ≥ 0x8a, itself set, carries into the next.
func nonDigits(v uint64) uint64 { return (v + (0x80-10)*lanes | v) & high }

// eightDigits is the value of the digits 0–9 in x's bytes, the first the
// most significant, in three multiplies (Lemire, arXiv:2101.11408).
func eightDigits(x uint64) uint64 {
	x = x*10 + x>>8 // pairs of digits in bytes 0, 2, 4, 6
	return ((x&0x000000ff000000ff)*(100+1000000<<32) + (x>>16&0x000000ff000000ff)*(1+10000<<32)) >> 32
}

// lastBytes[w][n] keeps the last n bytes (all, from 16) of a 16-byte
// window in its word w.
var lastBytes = func() (m [2][32]uint64) {
	for n := range 32 {
		m[0][n], m[1][n] = ^uint64(0)<<(128-8*min(n, 16)), ^uint64(0)<<(64-8*min(n, 8))
	}
	return m
}()

// wordTokens is stage 2: it appends the numbers of the tokens that end at
// ends[0], ends[1], … (the first from b[s]) until it declines one or block
// is full, and returns how many. A token's mantissa -?digits(.digits)?, of
// at most 16 bytes after the sign, is read from the two words that end
// with it, the dot squeezed out of its digits and no branch on a byte; an
// exponent of 1–3 digits after it is read byte by byte (exponentOf); the
// value takes parseFloat32's exact route (nearest). It declines any other
// token, one off that route, and one within the body's first 16 bytes.
func wordTokens(b []byte, s int, ends []int, block []float32) ([]float32, int) {
	ends = ends[:min(len(ends), cap(block)-len(block))]
	for j, e := range ends {
		if e < 16 {
			return block, j
		}
		sign := (uint64(b[s]^'-') - 1) >> 63 // no branch on a random sign
		x, me := 0, e                        // the exponent; the mantissa's end
		if t := binary.LittleEndian.Uint32(b[e-4:e:e]) | 0x20202020 ^ 'e'*0x01010101; (t-0x01010101)&^t&0x80808080 != 0 {
			me, x = exponentOf(b, s, e) // an 'e' or 'E' in the last four bytes
		}
		n := me - s - int(sign)
		if n < 1 || n > 16 || me < 16 {
			return block, j
		}
		// Digits to 0–9 and the bytes before the token to 0; c has a bit
		// per non-digit (lo's at 8k+3, hi's at 8k+7), and one '.' may be.
		win := b[me-16 : me : me]
		lo := (binary.LittleEndian.Uint64(win[:8]) ^ lanes*'0') & lastBytes[0][n&31]
		hi := (binary.LittleEndian.Uint64(win[8:]) ^ lanes*'0') & lastBytes[1][n&31]
		c := nonDigits(lo)>>4 | nonDigits(hi)
		intLen, frac := n, 0
		if c != 0 {
			t := bits.TrailingZeros64(c)
			k := (t>>3 | t&4<<1) & 15 // the '.'s byte in win
			if frac, intLen = 15-k, n-16+k; c&(c-1) != 0 || win[k] != '.' || frac == 0 || intLen == 0 {
				return block, j
			}
			// Shift the bytes below the '.' up over it.
			ll, lh := lo&^lastBytes[0][(frac+1)&31], hi&^lastBytes[1][(frac+1)&31]
			lo, hi = lo&lastBytes[0][frac&31]|ll<<8, hi&lastBytes[1][frac&31]|lh<<8|ll>>56
		}
		f, ok := nearest(eightDigits(lo)*100000000+eightDigits(hi), x-frac)
		if !ok || intLen > 1 && b[me-n] == '0' { // a leading zero only in "0"
			return block, j
		}
		block = block[:len(block)+1] // within cap, and no growslice call
		block[len(block)-1] = math.Float32frombits(math.Float32bits(f) | uint32(sign)<<31)
		s = e + 1
	}
	return block, len(ends)
}

// exponentOf finds the [eE][+-]?digits suffix, of 1–3 digits, of the
// token b[s:e]: it returns the index of its 'e' and its value, or e.
func exponentOf(b []byte, s, e int) (at, x int) {
	d := e // the first digit
	for d > s && e-d < 3 && b[d-1]-'0' < 10 {
		d--
	}
	if at = d; b[d-1] == '+' || b[d-1] == '-' {
		at--
	}
	if d == e || at <= s+1 || b[at-1]|0x20 != 'e' {
		return e, 0
	}
	for _, c := range b[d:e] {
		x = x*10 + int(c-'0')
	}
	if b[d-1] == '-' {
		x = -x
	}
	return at - 1, x
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat32 parses the JSON number starting at b[i] to the float32
// encoding/json would store for it — the one nearest the decimal, ties to
// even, which is strconv.ParseFloat(s, 32) — and returns the index after
// it: by nearest where that is exact, else by strconv.ParseFloat on the
// validated token. ok is false when the bytes are not a JSON number or
// the value overflows float32.
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
	if f, ok := nearest(m, exp); ok && nd <= 19 {
		if neg {
			f = -f
		}
		return f, i, true
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 32)
	return float32(v), i, err == nil
}

// nearest is the number contract's exact route to the float32 nearest
// m × 10^exp. With m < 2^53 and |exp| ≤ 22 both are exact in float64, so
// one multiply or divide gives d, the float64 nearest the decimal, and
// float32(d) is the float32 nearest it too (rounding is monotonic) unless
// d sits exactly on a float32 rounding boundary (low 29 mantissa bits
// 1000…0) or outside float32's normal range: there ok is false.
func nearest(m uint64, exp int) (float32, bool) {
	if m >= 1<<53 || exp < -22 || exp > 22 {
		return 0, false
	}
	d := float64(int64(m)) // exact: m < 2^53
	if exp < 0 {
		d /= pow10[-exp]
	} else {
		d *= pow10[exp]
	}
	onBoundary := math.Float64bits(d)&(1<<29-1) == 1<<28
	return float32(d), m == 0 || (d >= 0x1p-126 && d <= math.MaxFloat32 && !onBoundary)
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
