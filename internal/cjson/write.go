package cjson

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The Append functions write values exactly as json.Encoder writes them
// with its default HTML escaping, so an object assembled from them is
// byte for byte what json.NewEncoder(w).Encode writes for the struct it
// mirrors (without Encode's trailing newline).

// htmlSafe marks the ASCII bytes json.Encoder writes through unescaped:
// printable ASCII but for '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string: control bytes, '"', '\\' and
// the HTML-significant '<', '>' and '&' escaped, invalid UTF-8 replaced
// by \ufffd, and U+2028 and U+2029 escaped.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as json.Encoder writes a float64: the shortest
// representation that round-trips, in 'f' format unless |f| is below
// 1e-6 or at least 1e21, in 'e' format then with a one-digit negative
// exponent written without its leading zero. It reports false, having
// appended nothing, for NaN and ±Inf, which encoding/json refuses.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
	if abs < 1<<53 && f == math.Trunc(f) && f != 0 {
		// Below 2^53 every integer is a float64, so no shorter digit
		// string names f: its shortest form is its integer digits. (Zero
		// is left to strconv, which keeps the sign of -0.)
		return strconv.AppendInt(b, int64(f), 10), true
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// AppendInt appends n in decimal.
func AppendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

// AppendBool appends true or false.
func AppendBool(b []byte, v bool) []byte { return strconv.AppendBool(b, v) }

// AppendInts appends xs as a JSON array of integers, or null for a nil
// slice, as encoding/json writes a []int.
func AppendInts(b []byte, xs []int) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendInt(b, x)
	}
	return append(b, ']')
}
