package engine

import "lamb/internal/cjson"

// A record is encoded on every served query, so serve appends it
// field by field instead of going through encoding/json's reflection.
// The bytes are encoding/json's: Record has no MarshalJSON, so
// encoding/json stays the oracle the encoder is tested against.

// AppendRecord appends r as encoding/json marshals it. It reports false
// when r holds a float encoding/json refuses (NaN or ±Inf); the caller
// then encodes with encoding/json to get its error.
func AppendRecord(b []byte, r *Record) ([]byte, bool) {
	b = append(b, '{')
	b, ok := AppendRecordFields(b, r)
	return append(b, '}'), ok
}

// AppendRecordFields appends r's members without the enclosing braces:
// what encoding/json writes for a struct that embeds *Record, before
// the outer struct's own fields.
func AppendRecordFields(b []byte, r *Record) ([]byte, bool) {
	ok := true
	b = append(b, `"expr":`...)
	b = cjson.AppendString(b, r.Expr)
	b = append(b, `,"instance":`...)
	b = cjson.AppendInts(b, r.Instance)
	b = append(b, `,"strategy":`...)
	b = cjson.AppendString(b, r.Strategy)
	b = append(b, `,"backend":`...)
	b = cjson.AppendString(b, r.Backend)
	b = append(b, `,"selected":`...)
	b = appendCandidate(b, &r.Selected, &ok)
	b = append(b, `,"num_algorithms":`...)
	b = cjson.AppendInt(b, r.NumAlgorithms)
	if r.Profile != "" {
		b = append(b, `,"profile":`...)
		b = cjson.AppendString(b, r.Profile)
	}
	if r.Requested != "" {
		b = append(b, `,"requested_strategy":`...)
		b = cjson.AppendString(b, r.Requested)
	}
	if r.Degraded != "" {
		b = append(b, `,"degraded":`...)
		b = cjson.AppendString(b, r.Degraded)
	}
	b = append(b, `,"candidates":`...)
	if r.Candidates == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Candidates {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCandidate(b, &r.Candidates[i], &ok)
		}
		b = append(b, ']')
	}
	b = append(b, `,"ranking":`...)
	if r.Ranking == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Ranking {
			e := &r.Ranking[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"alg":`...)
			b = cjson.AppendInt(b, e.Alg)
			b = append(b, `,"p_best":`...)
			b = appendFloat(b, e.PBest, &ok)
			b = append(b, `,"mean":`...)
			b = appendFloat(b, e.Mean, &ok)
			b = append(b, `,"stderr":`...)
			b = appendFloat(b, e.StdErr, &ok)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"confidence":`...)
	b = appendFloat(b, r.Confidence, &ok)
	if r.Anomaly {
		b = append(b, `,"anomaly":true`...)
	}
	if r.Explore {
		b = append(b, `,"explore":true`...)
	}
	return b, ok
}

func appendCandidate(b []byte, c *Candidate, ok *bool) []byte {
	b = append(b, `{"index":`...)
	b = cjson.AppendInt(b, c.Index)
	b = append(b, `,"name":`...)
	b = cjson.AppendString(b, c.Name)
	b = append(b, `,"flops":`...)
	b = appendFloat(b, c.Flops, ok)
	return append(b, '}')
}

// appendFloat appends f, clearing *ok if encoding/json would refuse it.
func appendFloat(b []byte, f float64, ok *bool) []byte {
	b, fine := cjson.AppendFloat(b, f)
	if !fine {
		*ok = false
	}
	return b
}
