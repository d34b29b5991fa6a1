package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRequestBodies sends arbitrary bytes to every endpoint that decodes
// a JSON request body. No body may panic the daemon or come back 5xx:
// a request the model cannot answer is the client's error, so it must
// be refused as a 4xx whose JSON body names the error. A 200 carries a
// JSON body.
func FuzzRequestBodies(f *testing.F) {
	paths := []string{"/v1/evaluate", "/v1/batch", "/v1/tcdp", "/v1/suite"}
	// One valid and one malformed body per endpoint, in paths order.
	seeds := [][2]string{
		{`{"system":"si","workload":"crc32"}`, `{"system":"si","workload":`},
		{`{"items":[{"system":"m3d","workload":"crc32","grid":"Coal"}]}`, `{"items":{"system":"m3d"}}`},
		{`{"workload":"crc32","months":36,"op_scales":[0.5,1]}`, `{"workload":"crc32","months":"36"}`},
		{`{"grid":"US"}`, `{"grid":["US"]}`},
	}
	for i, s := range seeds {
		f.Add(uint8(i), []byte(s[0]))
		f.Add(uint8(i), []byte(s[1]))
	}
	srv := New(quietConfig())
	f.Cleanup(srv.Close)
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		code, got := rec.Code, rec.Body.Bytes()
		switch {
		case code == http.StatusOK:
			if !json.Valid(got) {
				t.Fatalf("POST %s %q: 200 with a body that is not JSON: %q", path, body, got)
			}
		case code >= 400 && code < 500:
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("POST %s %q: %d with Content-Type %q", path, body, code, ct)
			}
			var e httpError
			if err := json.Unmarshal(got, &e); err != nil || e.Error == "" {
				t.Fatalf("POST %s %q: %d with body %q, want a JSON error", path, body, code, got)
			}
		default:
			t.Fatalf("POST %s %q: status %d, body %q", path, body, code, got)
		}
	})
}
