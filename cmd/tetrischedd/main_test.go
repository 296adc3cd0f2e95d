package main

import (
	"net/http"
	"testing"
	"time"
)

// TestServerTimeouts: the daemon's server sets every connection deadline. A
// zero field means no deadline at all, which is what every one of them was.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler())
	for name, d := range map[string][2]time.Duration{
		"ReadHeaderTimeout": {srv.ReadHeaderTimeout, readHeaderTimeout},
		"ReadTimeout":       {srv.ReadTimeout, readTimeout},
		"WriteTimeout":      {srv.WriteTimeout, writeTimeout},
		"IdleTimeout":       {srv.IdleTimeout, idleTimeout},
	} {
		if got, want := d[0], d[1]; got != want || got <= 0 {
			t.Errorf("%s = %v, want %v and above zero", name, got, want)
		}
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v: the header deadline would never fire", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}
