package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// The reply check accepts a run whose horizon saw no arrival and rejects an
// empty, cancelled or unbalanced result.
func TestReplyCheck(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       bool
	}{
		{"jobs", `{"result":{"Scheduler":"GE","Jobs":3,"Completed":1,"Expired":1,"DroppedJobs":1}}`, true},
		{"no arrivals", `{"result":{"Scheduler":"GE","Jobs":0}}`, true},
		{"empty", `{}`, false},
		{"cancelled", `{"result":{"Scheduler":"GE","Jobs":1,"Completed":1,"Cancelled":true}}`, false},
		{"lost job", `{"result":{"Scheduler":"GE","Jobs":2,"Completed":1}}`, false},
		{"not json", `oops`, false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(tc.body))
		}))
		c := newClient(srv.URL, 1)
		if ok, _ := c.do(0); ok != tc.want {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.want)
		}
		c.close()
		srv.Close()
	}
}
