package tetra_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/tetra"
)

// TestHandlerServesPrograms exercises the public embedding path: mount
// tetra.Handler on any mux and POST programs at it.
func TestHandlerServesPrograms(t *testing.T) {
	ts := httptest.NewServer(tetra.Handler(tetra.ServerOptions{}))
	defer ts.Close()

	body := `{"source": "def main():\n    print(2 + 3)\n", "backend": "vm"}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr struct {
		OK     bool   `json:"ok"`
		Stdout string `json:"stdout"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if !rr.OK || rr.Stdout != "5\n" {
		t.Errorf("got %+v", rr)
	}
}

// TestServeListenerDrainsOnCancel boots the full service on an ephemeral
// port, runs a request, cancels the context and requires a clean drain.
func TestServeListenerDrainsOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- tetra.ServeListener(ctx, ln, tetra.ServerOptions{DrainGrace: 200 * time.Millisecond})
	}()

	url := fmt.Sprintf("http://%s", ln.Addr())
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Post(url+"/run", "application/json",
		strings.NewReader(`{"source": "def main():\n    print(\"up\")\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("ServeListener returned %v, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeListener did not return after cancel")
	}
}

// TestServeBindsThenServes: Serve is ServeListener on a listener it binds
// itself, so a bad address is its error and a cancelled context a clean
// drain.
func TestServeBindsThenServes(t *testing.T) {
	if err := tetra.Serve(context.Background(), "127.0.0.1:99999", tetra.ServerOptions{}); err == nil {
		t.Error("Serve on an unbindable address returned nil")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tetra.Serve(ctx, "127.0.0.1:0", tetra.ServerOptions{DrainGrace: 200 * time.Millisecond}); err != nil {
		t.Errorf("Serve returned %v, want clean drain", err)
	}
}
