package cli

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"

	"repro/internal/router"
)

// RouterMain runs the tetrarouter command (cmd/tetrarouter is a thin
// wrapper): the cache-affinity front router for a fleet of tetrad
// replicas. It serves until SIGINT/SIGTERM, then drains gracefully.
// Returns the process exit code.
func RouterMain(args []string, stdout, stderr io.Writer) int {
	return routerMain(args, stdout, stderr, nil)
}

// routerMain is RouterMain with an injectable stop channel so tests can
// shut the router down without sending real signals.
func routerMain(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("tetrarouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8700", "listen address")
	backends := fs.String("backends", "", "comma-separated tetrad base URLs, each url[=weight] (required), e.g. http://10.0.0.7:8714=2,http://10.0.0.8:8714")
	policy := fs.String("policy", router.PolicyAffinity, "routing policy: \"affinity\" (consistent-hash on program content) or \"random\"")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per unit of backend weight (0 = default)")
	probeInterval := fs.Duration("probe-interval", 0, "backend readiness poll interval (0 = default 250ms)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrently-proxied requests per backend before spillover (0 = default 128)")
	maxRetries := fs.Int("retries", 0, "connection-failure retries per request across ring nodes (0 = default 2, negative = none)")
	drainGrace := fs.Duration("drain-grace", 0, "how long shutdown waits for in-flight proxies (0 = default 10s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: tetrarouter -backends url[=weight],... [flags]")
		fs.PrintDefaults()
		return 2
	}
	cfgs, err := ParseBackends(*backends)
	if err != nil {
		fmt.Fprintf(stderr, "tetrarouter: %v\n", err)
		return 2
	}

	logger := log.New(stderr, "tetrarouter: ", log.LstdFlags)
	rt, err := router.New(router.Options{
		Backends:      cfgs,
		Policy:        *policy,
		VNodes:        *vnodes,
		ProbeInterval: *probeInterval,
		MaxInFlight:   *maxInFlight,
		MaxRetries:    *maxRetries,
		DrainGrace:    *drainGrace,
		Logf:          logger.Printf,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "tetrarouter: listening on %s\n", ln.Addr())
	fmt.Fprintf(stdout, "tetrarouter: policy=%s backends=%d\n", rt.Options().Policy, len(cfgs))
	for _, b := range cfgs {
		fmt.Fprintf(stdout, "tetrarouter: backend %s (weight %d)\n", b.URL, b.Weight)
	}

	return serveUntilStopped("tetrarouter", ln, rt, rt.Drain, stdout, stderr, stop)
}

// ParseBackends parses the -backends flag grammar: a comma-separated
// list of url[=weight]. IDs default to host:port inside router.New.
func ParseBackends(spec string) ([]router.Backend, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-backends is required (comma-separated tetrad URLs, each url[=weight])")
	}
	var out []router.Backend
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		b := router.Backend{URL: part, Weight: 1}
		// The weight suffix is "=N" after the URL; URLs themselves can
		// contain '=' only in a query string, which a base URL here
		// should not have.
		if i := strings.LastIndexByte(part, '='); i >= 0 {
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("bad backend weight in %q (want url=positive-integer)", part)
			}
			b.URL, b.Weight = part[:i], w
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-backends is required (comma-separated tetrad URLs, each url[=weight])")
	}
	return out, nil
}
