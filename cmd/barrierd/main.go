// Command barrierd serves sharded epoch coordination over loopback UDP:
// fuzzy-barrier groups as a service. Clients join groups, arrive at
// epochs, and receive releases once every registered signaler has
// arrived — the paper's split-phase barrier with the network transit as
// the overlapped region.
//
// Usage:
//
//	barrierd                        # 4 shards on ephemeral ports
//	barrierd -shards 8 -port 9700   # shard i listens on 9700+i
//	barrierd -duration 5s           # exit after 5s (smoke tests)
//
// Flags:
//
//	-shards N     coordinator shards (default 4)
//	-radix K      combine-tree fan-in (default 2)
//	-port P       base UDP port; shard i binds 127.0.0.1:P+i (0 = ephemeral)
//	-watchdog D   no-progress threshold per group (default 2s, 0 = off)
//	-duration D   exit after D (default 0 = run until signalled)
//
// Each shard prints "shard I listening on ADDR" at startup; clients
// register those addresses as routes for transport addresses 1..N.
// Stuck-group reports go to stderr as they happen.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fuzzybarrier/internal/barrierd"
)

func main() {
	shards := flag.Int("shards", 4, "coordinator shards")
	radix := flag.Int("radix", 2, "combine-tree fan-in")
	port := flag.Int("port", 0, "base UDP port (0 = ephemeral)")
	watchdog := flag.Duration("watchdog", 2*time.Second, "no-progress threshold (0 = off)")
	duration := flag.Duration("duration", 0, "exit after this long (0 = run until signalled)")
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "barrierd: -shards must be >= 1 (got %d)\n", *shards)
		os.Exit(1)
	}
	if *radix < 2 {
		fmt.Fprintf(os.Stderr, "barrierd: -radix must be >= 2 (got %d)\n", *radix)
		os.Exit(1)
	}

	cfg := barrierd.RealtimeConfig()
	cfg.Shards = *shards
	cfg.Radix = *radix
	cfg.Watchdog = int64(*watchdog)

	svc, nw, addrs, err := barrierd.StartUDP(cfg, *port, func(sr barrierd.StuckReport) {
		fmt.Fprintln(os.Stderr, sr)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "barrierd:", err)
		os.Exit(1)
	}
	defer nw.Close()
	defer svc.Close()
	for i, a := range addrs {
		fmt.Printf("shard %d listening on %s\n", i, a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-time.After(*duration):
		case <-sig:
		}
	} else {
		<-sig
	}
	var arrivals, releases, stucks int64
	for _, sh := range svc.Shards {
		a, r, s := sh.Snapshot()
		arrivals += a
		releases += r
		stucks += s
	}
	fmt.Printf("barrierd: shards=%d arrivals=%d releases=%d stuck-reports=%d\n",
		len(svc.Shards), arrivals, releases, stucks)
}
