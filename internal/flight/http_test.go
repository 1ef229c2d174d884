package flight

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// The capture handler answers the documented query forms and rejects an
// unknown view.
func TestHandlerViews(t *testing.T) {
	h := Handler(New(2, 8))
	for _, c := range []struct {
		query       string
		status      int
		contentType string
	}{
		{"", http.StatusOK, "application/json"},
		{"?format=binary", http.StatusOK, "application/octet-stream"},
		{"?view=spans&node=1", http.StatusOK, "text/plain; charset=utf-8"},
		{"?view=bogus", http.StatusBadRequest, "text/plain; charset=utf-8"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/flightz"+c.query, nil))
		if rec.Code != c.status || rec.Header().Get("Content-Type") != c.contentType {
			t.Errorf("%q: status %d, content type %q; want %d, %q",
				c.query, rec.Code, rec.Header().Get("Content-Type"), c.status, c.contentType)
		}
	}
}
