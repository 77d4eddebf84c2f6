package cli

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"insidedropbox/internal/telemetry"
)

// ProfileFlags binds the opt-in observability flag vocabulary shared by
// cmd/experiments and cmd/dropsim: pprof serving, CPU/heap profiles, and
// periodic telemetry snapshot lines. All default to off — the binaries
// pay nothing unless asked.
type ProfileFlags struct {
	pprofAddr  *string
	cpuProfile *string
	memProfile *string
	interval   *time.Duration
}

// BindProfile registers the observability flags on fs.
func BindProfile(fs *flag.FlagSet) *ProfileFlags {
	return &ProfileFlags{
		pprofAddr:  fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)"),
		cpuProfile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile: fs.String("memprofile", "", "write a heap profile to this file on stop"),
		interval:   fs.Duration("telemetry-interval", 0, "print a telemetry snapshot line to stderr at this interval (0 = off)"),
	}
}

// Start activates whichever sinks the parsed flags configured and returns
// an idempotent stop function that flushes and closes them (the CPU
// profile stops, the heap profile writes, the telemetry logger emits its
// final line). Stops also run on Exit, so a failed run still produces its
// profiles.
func (f *ProfileFlags) Start() (stop func(), err error) {
	var stops []func()
	fail := func(err error) (func(), error) {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		return nil, err
	}
	if *f.cpuProfile != "" {
		cf, err := os.Create(*f.cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return fail(fmt.Errorf("starting CPU profile: %w", err))
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			cf.Close()
		})
	}
	if *f.memProfile != "" {
		path := *f.memProfile
		// Fail on an unwritable path now, not after the whole run.
		mf, err := os.Create(path)
		if err != nil {
			return fail(err)
		}
		stops = append(stops, func() {
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(os.Stderr, "heap profile: %v\n", err)
			}
			mf.Close()
		})
	}
	if *f.pprofAddr != "" {
		ln, err := net.Listen("tcp", *f.pprofAddr)
		if err != nil {
			return fail(fmt.Errorf("pprof listener: %w", err))
		}
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", ln.Addr())
		srv := &http.Server{Handler: http.DefaultServeMux}
		go srv.Serve(ln)
		stops = append(stops, func() { srv.Close() })
	}
	if *f.interval > 0 {
		stops = append(stops, telemetry.LogPeriodically(os.Stderr, *f.interval))
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			for i := len(stops) - 1; i >= 0; i-- {
				stops[i]()
			}
		})
	}
	registerStop(stop)
	return stop, nil
}

// Profile stops registered for Exit: a run that dies on error still
// flushes its CPU/heap profiles and final telemetry line.
var (
	stopsMu sync.Mutex
	stops   []func()
)

func registerStop(fn func()) {
	stopsMu.Lock()
	defer stopsMu.Unlock()
	stops = append(stops, fn)
}

// runStops executes every registered profile stop, once.
func runStops() {
	stopsMu.Lock()
	fns := stops
	stops = nil
	stopsMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}
