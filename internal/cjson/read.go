// Package cjson reads and writes JSON on the serving path without
// encoding/json's reflection, and answers exactly as encoding/json does.
//
// Reader parses one canonical form in one pass:
//
//   - keys spelt exactly as the struct tags, each at most once per
//     object (Object falls back on any other key; LenientObject skips
//     unknown keys but falls back on case-folded and duplicate ones);
//   - strings of printable ASCII without escapes (any backslash, control
//     byte or non-ASCII byte falls back);
//   - numbers in JSON's grammar, integers where the field is an int and
//     the value fits one;
//   - no null, and nothing after the value but whitespace.
//
// A caller parses with Reader and, when it reports false, decodes the
// same bytes with encoding/json instead (Fallback), so the inputs it
// accepts, what they decode to and the errors it reports do not depend
// on which path ran. The Append functions write values byte for byte as
// json.Encoder does (write.go).
package cjson

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// Reader is a cursor over one JSON text. Every method reports false when
// the input leaves the canonical form; the cursor is then in no defined
// place and the caller falls back.
type Reader struct {
	b []byte
	i int
}

// NewReader returns a reader at the start of b. Strings it returns
// alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

func (r *Reader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (r *Reader) next(c byte) bool {
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// End reports whether only whitespace is left.
func (r *Reader) End() bool {
	r.ws()
	return r.i == len(r.b)
}

// Object parses an object whose keys are drawn from keys, each at most
// once, calling value with the key after its colon. Any other key ends
// the parse.
func (r *Reader) Object(keys []string, value func(key string) bool) bool {
	return r.object(keys, false, value)
}

// LenientObject parses an object as json.Unmarshal fills a struct whose
// tags are keys: a key not among them is skipped with its value, unless
// it matches one of them but for case (encoding/json would fold it into
// that field), which ends the parse, as a repeated key does.
func (r *Reader) LenientObject(keys []string, value func(key string) bool) bool {
	return r.object(keys, true, value)
}

func (r *Reader) object(keys []string, lenient bool, value func(key string) bool) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	var seen uint64
	for {
		b, ok := r.Str()
		if !ok {
			return false
		}
		f := -1
		for i, k := range keys {
			if k == string(b) {
				f = i
				break
			}
		}
		if !r.next(':') {
			return false
		}
		switch {
		case f >= 0:
			if seen&(1<<f) != 0 {
				return false
			}
			seen |= 1 << f
			if !value(keys[f]) {
				return false
			}
		case !lenient || folds(keys, b):
			return false
		case !r.skip(0):
			return false
		}
		if !r.next(',') {
			return r.next('}')
		}
	}
}

// folds reports whether b equals one of keys under ASCII case folding.
// b is ASCII (Str returns nothing else), so this is the whole of
// encoding/json's folding for it.
func folds(keys []string, b []byte) bool {
	for _, k := range keys {
		if len(k) == len(b) && bytes.EqualFold([]byte(k), b) {
			return true
		}
	}
	return false
}

// maxSkipDepth bounds the nesting skip follows; deeper values fall back,
// so a hostile body cannot drive the recursion.
const maxSkipDepth = 32

// skip consumes one value of the canonical form at nesting depth d.
func (r *Reader) skip(d int) bool {
	if d > maxSkipDepth {
		return false
	}
	r.ws()
	if r.i == len(r.b) {
		return false
	}
	switch c := r.b[r.i]; {
	case c == '"':
		_, ok := r.Str()
		return ok
	case c == '{':
		r.i++
		if r.next('}') {
			return true
		}
		for {
			if _, ok := r.Str(); !ok || !r.next(':') || !r.skip(d+1) {
				return false
			}
			if !r.next(',') {
				return r.next('}')
			}
		}
	case c == '[':
		return r.Array(func() bool { return r.skip(d + 1) })
	case c == 't' || c == 'f':
		_, ok := r.Bool()
		return ok
	default:
		_, _, ok := r.number()
		return ok
	}
}

// Array parses an array, calling elem for each element.
func (r *Reader) Array(elem func() bool) bool {
	if !r.next('[') {
		return false
	}
	if r.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !r.next(',') {
			return r.next(']')
		}
	}
}

// Str parses an escape-free string of printable ASCII and returns its
// bytes, which alias the input.
func (r *Reader) Str() ([]byte, bool) {
	if !r.next('"') {
		return nil, false
	}
	start := r.i
	for r.i < len(r.b) {
		c := r.b[r.i]
		switch {
		case c == '"':
			r.i++
			return r.b[start : r.i-1], true
		case c < ' ' || c == '\\' || c >= 0x80:
			return nil, false
		}
		r.i++
	}
	return nil, false
}

// Bool parses true or false.
func (r *Reader) Bool() (v, ok bool) {
	r.ws()
	switch {
	case bytes.HasPrefix(r.b[r.i:], []byte("true")):
		r.i += len("true")
		return true, true
	case bytes.HasPrefix(r.b[r.i:], []byte("false")):
		r.i += len("false")
		return false, true
	}
	return false, false
}

// number parses a number in JSON's grammar and returns its text and
// whether it is an integer (no fraction, no exponent).
func (r *Reader) number() (text []byte, integer, ok bool) {
	r.ws()
	start := r.i
	r.skipByte('-')
	switch {
	case r.skipByte('0'):
	case r.digits() == 0:
		return nil, false, false
	}
	integer = true
	if r.skipByte('.') {
		if r.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if r.skipByte('e') || r.skipByte('E') {
		if !r.skipByte('+') {
			r.skipByte('-')
		}
		if r.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return r.b[start:r.i], integer, true
}

// skipByte consumes c if it comes next, without skipping whitespace.
func (r *Reader) skipByte(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (r *Reader) digits() int {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

// Int parses an integer that fits an int, as encoding/json decodes an
// int field.
func (r *Reader) Int() (int, bool) {
	text, integer, ok := r.number()
	if !ok || !integer {
		return 0, false
	}
	neg := text[0] == '-'
	if neg {
		text = text[1:]
	}
	// The grammar allows no leading zero, so more than 19 digits is at
	// least 1e19, past every int; 19 digits fit a uint64.
	if len(text) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range text {
		n = n*10 + uint64(c-'0')
	}
	if neg {
		if n > uint64(math.MaxInt)+1 {
			return 0, false
		}
		return -int(n), true
	}
	if n > math.MaxInt {
		return 0, false
	}
	return int(n), true
}

// Ints parses an array of integers that fit an int, appends them to
// dst and returns the extended slice.
func (r *Reader) Ints(dst []int) ([]int, bool) {
	ok := r.Array(func() bool {
		d, ok := r.Int()
		dst = append(dst, d)
		return ok
	})
	return dst, ok
}

// Float parses a number that fits a float64, as encoding/json decodes a
// float64 field.
func (r *Reader) Float() (float64, bool) {
	text, _, ok := r.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(text), 64)
	return f, err == nil
}

// Cut copies v into the arena and returns the copy, capped at its
// length, so an append to one cut never reaches another. A fresh arena
// holds at least chunk elements. An empty v gives an empty, non-nil
// slice, as encoding/json decodes [].
func Cut[T any](arena *[]T, v []T, chunk int) []T {
	if len(v) == 0 {
		return make([]T, 0)
	}
	if cap(*arena)-len(*arena) < len(v) {
		*arena = make([]T, 0, max(len(v), chunk))
	}
	start := len(*arena)
	*arena = append(*arena, v...)
	return (*arena)[start:len(*arena):len(*arena)]
}

// Fallback decodes one JSON value into v with encoding/json from data,
// the bytes read from a source, followed by readErr, the error that
// ended the read (nil at EOF): the same byte stream, read error
// included, that a json.Decoder reading the source itself would have
// seen, so it accepts, decodes and fails as that decoder would. strict
// disallows unknown fields. Anything after the value is not read.
func Fallback(data []byte, readErr error, v any, strict bool) error {
	var src io.Reader = bytes.NewReader(data)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(v)
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
