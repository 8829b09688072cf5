package router

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkRouterForward times one query through the router's handler to
// a loopback backend that answers a fixed record of about 1.7 KB, the
// size of a served selection record.
func BenchmarkRouterForward(b *testing.B) {
	record := []byte(`{"expr":"aatb","strategy":"min-flops","selected":{"index":1},"pad":"` +
		strings.Repeat("x", 1650) + `"}`)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(record)
	}))
	defer backend.Close()
	rt, err := New(Config{Backends: []string{backend.URL}})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	h := rt.Handler()
	query := []byte(aatbQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(query)))
		if w.Code != http.StatusOK || w.Body.Len() != len(record) {
			b.Fatalf("status %d, %d bytes", w.Code, w.Body.Len())
		}
	}
}
