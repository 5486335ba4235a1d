// The POST /v1/sort wire codec, written for that one schema instead of
// going through reflection: a single-pass decoder that parses the key
// columns digit by digit straight into their []uint64 columns, and an
// append-style encoder that writes the response (32-bit columns
// directly, without a widened copy) into one pooled buffer.
//
// The decoder accepts exactly what json.Decoder with
// DisallowUnknownFields accepts for SortRequestJSON and yields the same
// struct — whitespace, null for any field, string escapes, duplicate
// fields (last wins), null array elements — with two deliberate
// rejections where encoding/json is lenient: field names that match a
// tag only case-insensitively (errFoldedField) and non-whitespace after
// the closing brace (errTrailingData). The encoder's output is byte for
// byte what json.Encoder.Encode writes for the equivalent
// SortResponseJSON, trailing newline included. encoding/json remains
// the oracle both are tested against (jsonwire_test.go).

package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The two request shapes encoding/json accepts but the codec rejects.
var (
	errFoldedField  = errors.New("field name matches a known field only case-insensitively")
	errTrailingData = errors.New("data after the request object")
)

// Body buffers are pooled across requests; one holds the request body,
// then the response. Buffers past maxPooledBuf are dropped so one large
// request cannot pin its memory in the pool.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns an empty pooled buffer.
func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf returns b to the pool unless it grew past maxPooledBuf.
func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// bodyLimit caps a /v1/sort body: MaxTuples keys plus as many vals at up
// to 32 bytes per number, plus 64 KiB for the envelope, never above
// 1 GiB.
func (c *Config) bodyLimit() int64 {
	return min(min(int64(c.MaxTuples), 1<<30)*2*32+64<<10, 1<<30)
}

// wireDecoder is one pass over a request body.
type wireDecoder struct {
	data []byte
	pos  int
	// back holds each column's (keys, vals) decoded elements since its
	// last reset: encoding/json decodes a repeated array field into the
	// previous one's backing array, so a null element of the repeat keeps
	// the value an earlier occurrence left at that index.
	back [2][]uint64
	// maxTuples bounds a column's length before it is allocated; a longer
	// column is scanned but not stored, and tooLarge reports it once the
	// rest of the body has parsed, so a malformed body is a 400 whatever
	// its element count.
	maxTuples int
	tooLarge  *TooLargeError
}

// decodeSortRequest parses one /v1/sort body into b. A well-formed body
// with a column longer than maxTuples fails with *TooLargeError without
// that column being allocated.
func decodeSortRequest(data []byte, b *SortRequestJSON, maxTuples int) error {
	d := wireDecoder{data: data, maxTuples: maxTuples}
	d.skipWS()
	if !d.literal("null") { // top-level null decodes to the zero request
		if err := d.object(b); err != nil {
			return err
		}
	}
	d.skipWS()
	if d.pos != len(d.data) {
		return d.errorf("%w", errTrailingData)
	}
	if d.tooLarge != nil {
		return d.tooLarge
	}
	return nil
}

// errorf reports a decode error at the current offset.
func (d *wireDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("invalid JSON: offset %d: %w", d.pos, fmt.Errorf(format, args...))
}

// unexpected reports the byte at the current offset (or truncation)
// where want was required.
func (d *wireDecoder) unexpected(want string) error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of body, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.pos], want)
}

// skipWS advances past JSON whitespace.
func (d *wireDecoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (d *wireDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// literal advances past lit if the body continues with it.
func (d *wireDecoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// object decodes the request object's members into b.
func (d *wireDecoder) object(b *SortRequestJSON) error {
	if !d.consume('{') {
		return d.unexpected("'{'")
	}
	d.skipWS()
	if d.consume('}') {
		return nil
	}
	for {
		if d.pos >= len(d.data) || d.data[d.pos] != '"' {
			return d.unexpected("a field name")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.skipWS()
		if !d.consume(':') {
			return d.unexpected("':'")
		}
		d.skipWS()
		if err := d.field(b, key); err != nil {
			return err
		}
		d.skipWS()
		if d.consume('}') {
			return nil
		}
		if !d.consume(',') {
			return d.unexpected("',' or '}'")
		}
		d.skipWS()
	}
}

// requestFields are SortRequestJSON's wire names.
var requestFields = [...]string{"tenant", "algo", "priority", "width", "keys", "vals"}

// field decodes one member's value into the field its name selects.
// null leaves a string or integer field as it was and resets a column to
// nil, as encoding/json does.
func (d *wireDecoder) field(b *SortRequestJSON, key []byte) error {
	switch string(key) {
	case "tenant":
		return d.stringField(&b.Tenant, "tenant")
	case "algo":
		return d.stringField(&b.Algo, "algo")
	case "priority":
		return d.intField(&b.Priority, "priority")
	case "width":
		return d.intField(&b.Width, "width")
	case "keys":
		return d.column(&b.Keys, 0)
	case "vals":
		return d.column(&b.Vals, 1)
	}
	for _, name := range requestFields {
		if strings.EqualFold(string(key), name) {
			return d.errorf("field %q: %w (want %q)", key, errFoldedField, name)
		}
	}
	return d.errorf("unknown field %q", key)
}

// stringField decodes a string (or null) into *dst.
func (d *wireDecoder) stringField(dst *string, name string) error {
	if d.literal("null") {
		return nil
	}
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return d.unexpected(name + " as a string")
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	*dst = string(s)
	return nil
}

// intField decodes an integer (or null) into *dst.
func (d *wireDecoder) intField(dst *int, name string) error {
	if d.literal("null") {
		return nil
	}
	neg := d.consume('-')
	u, err := d.uint(name)
	if err != nil {
		return err
	}
	if limit := uint64(math.MaxInt); u > limit && !(neg && u == limit+1) {
		return d.errorf("%s overflows int", name)
	}
	if neg {
		*dst = int(-u)
	} else {
		*dst = int(u)
	}
	return d.endNumber(name)
}

// column decodes an array of unsigned integers (or null) into *dst,
// counting its elements first so the column is allocated once at its
// final length. which selects the keys (0) or vals (1) backing array.
func (d *wireDecoder) column(dst *[]uint64, which int) error {
	name := [...]string{"keys", "vals"}[which]
	if d.literal("null") {
		*dst, d.back[which] = nil, nil
		return nil
	}
	if !d.consume('[') {
		return d.unexpected(name + " as an array")
	}
	d.skipWS()
	if d.consume(']') {
		*dst, d.back[which] = []uint64{}, nil
		return nil
	}
	// Elements are numbers or null, which contain neither ',' nor ']':
	// in a valid array every comma before the first ']' separates two
	// of them. Anything else is rejected below, whatever the count.
	end := bytes.IndexByte(d.data[d.pos:], ']')
	if end < 0 {
		d.pos = len(d.data)
		return d.unexpected("']'")
	}
	n := bytes.Count(d.data[d.pos:d.pos+end], []byte{','}) + 1
	var col []uint64 // stays nil for a column past the cap
	if n > d.maxTuples {
		if d.tooLarge == nil {
			d.tooLarge = &TooLargeError{N: n, Max: d.maxTuples}
		}
	} else if col = d.back[which]; n > len(col) {
		col = append(make([]uint64, 0, n), col...)[:n]
		d.back[which] = col
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			d.skipWS()
			if !d.consume(',') {
				return d.unexpected("','")
			}
			d.skipWS()
		}
		if d.literal("null") {
			continue // keeps col[i], as encoding/json does
		}
		x, err := d.uint(name)
		if err != nil {
			return err
		}
		if err := d.endNumber(name); err != nil {
			return err
		}
		if col != nil {
			col[i] = x
		}
	}
	d.skipWS()
	if !d.consume(']') {
		return d.unexpected("']'")
	}
	if col != nil {
		*dst = col[:n]
	}
	return nil
}

// uint parses the digits of a JSON integer without sign: a lone 0 or a
// nonzero digit followed by digits, rejecting uint64 overflow. what
// names the field in errors.
func (d *wireDecoder) uint(what string) (uint64, error) {
	data, p := d.data, d.pos
	if p >= len(data) || data[p] < '0' || data[p] > '9' {
		return 0, d.unexpected("a digit in " + what)
	}
	if data[p] == '0' {
		d.pos = p + 1
		return 0, nil // a following digit is a leading zero: endNumber rejects it
	}
	var x uint64
	start := p
	for ; p < len(data); p++ {
		c := uint64(data[p] - '0')
		if c > 9 {
			break
		}
		if p-start < 19 { // 19 digits cannot overflow
			x = x*10 + c
			continue
		}
		hi, lo := bits.Mul64(x, 10)
		var carry uint64
		x, carry = bits.Add64(lo, c, 0)
		if hi|carry != 0 {
			d.pos = start
			return 0, d.errorf("number overflows uint64")
		}
	}
	d.pos = p
	return x, nil
}

// endNumber rejects what may not follow an integer: a fraction, an
// exponent, or a further digit after a leading zero.
func (d *wireDecoder) endNumber(name string) error {
	if d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '.' || c == 'e' || c == 'E':
			return d.errorf("%s must be an integer", name)
		case c >= '0' && c <= '9':
			return d.errorf("%s has a leading zero", name)
		}
	}
	return nil
}

// str decodes the JSON string at the current offset (its opening
// quote). Plain ASCII strings are returned as a slice of the body; others
// are unquoted as encoding/json does, invalid UTF-8 and unpaired
// surrogates becoming U+FFFD.
func (d *wireDecoder) str() ([]byte, error) {
	data := d.data
	start := d.pos + 1
	for p := start; p < len(data); p++ {
		switch c := data[p]; {
		case c == '"':
			d.pos = p + 1
			return data[start:p], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return d.unquote(start)
		case c < ' ':
			d.pos = p
			return nil, d.errorf("control character %#x in string", c)
		}
	}
	d.pos = len(data)
	return nil, d.unexpected("'\"'")
}

// unquote is str's slow path for strings with escapes or non-ASCII
// bytes.
func (d *wireDecoder) unquote(start int) ([]byte, error) {
	data := d.data
	out := make([]byte, 0, 64)
	for p := start; p < len(data); {
		c := data[p]
		switch {
		case c == '"':
			d.pos = p + 1
			return out, nil
		case c < ' ':
			d.pos = p
			return nil, d.errorf("control character %#x in string", c)
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(data[p:])
			out = utf8.AppendRune(out, r)
			p += size
		case c != '\\':
			out = append(out, c)
			p++
		default:
			if p+1 >= len(data) {
				d.pos = len(data)
				return nil, d.unexpected("an escape")
			}
			switch e := data[p+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(data[p+2:])
				if r < 0 {
					d.pos = p
					return nil, d.errorf("invalid \\u escape")
				}
				p += 6
				if utf16.IsSurrogate(r) {
					if r2 := utf16.DecodeRune(r, u4(data[p:])); r2 != utf8.RuneError {
						r = r2
						p += 6
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = p
				return nil, d.errorf("invalid escape %q", e)
			}
			p += 2
		}
	}
	d.pos = len(data)
	return nil, d.unexpected("'\"'")
}

// hex4 parses four hex digits (-1 if b does not start with them).
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// u4 parses a `\uXXXX` escape (-1 if b does not start with one).
func u4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	return hex4(b[2:])
}

// appendSortResponse appends the /v1/sort success body for req's sorted
// columns and res: byte for byte what json.Encoder.Encode writes for the
// equivalent SortResponseJSON, trailing newline included.
func appendSortResponse(b []byte, req *Request, res Result) []byte {
	cols, digits := 1, 21 // a uint64 and its comma
	if req.hasVals() {
		cols = 2
	}
	if req.Keys64 == nil {
		digits = 11
	}
	b = slices.Grow(b, req.n()*cols*digits+192)

	b = append(b, `{"keys":`...)
	if req.Keys64 != nil {
		b = appendColumn(b, req.Keys64)
	} else {
		b = appendColumn(b, req.Keys32)
	}
	if len(req.Vals64) > 0 {
		b = appendColumn(append(b, `,"vals":`...), req.Vals64)
	} else if len(req.Vals32) > 0 {
		b = appendColumn(append(b, `,"vals":`...), req.Vals32)
	}
	b = strconv.AppendInt(append(b, `,"queue_ns":`...), res.QueueWait.Nanoseconds(), 10)
	b = strconv.AppendInt(append(b, `,"sort_ns":`...), res.SortTime.Nanoseconds(), 10)
	b = strconv.AppendInt(append(b, `,"attempts":`...), int64(res.Attempts), 10)
	b = strconv.AppendInt(append(b, `,"stage":`...), int64(res.Stage), 10)
	if res.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if res.Batched {
		b = append(b, `,"batched":true`...)
	}
	if res.BatchRequests != 0 {
		b = strconv.AppendInt(append(b, `,"batch_requests":`...), int64(res.BatchRequests), 10)
	}
	if res.Spilled {
		b = append(b, `,"spilled":true`...)
	}
	return append(b, "}\n"...)
}

// appendColumn appends xs as a JSON array of decimal integers.
func appendColumn[T uint32 | uint64](b []byte, xs []T) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return append(b, ']')
}
