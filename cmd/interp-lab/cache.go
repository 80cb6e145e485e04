package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"interplab/internal/rescache"
)

// cmdCache administers a measurement cache directory:
//
//	interp-lab cache -dir d stats        summarize entries on disk
//	interp-lab cache -dir d gc           drop stale/corrupt entries
//	interp-lab cache -dir d clear        drop everything
//	interp-lab cache fingerprint         print this build's fingerprint
//
// gc keeps only entries written by the current build (fingerprint match);
// -max-age additionally drops entries older than the given duration.
// fingerprint prints the lab version fingerprint alone — CI uses it as the
// actions/cache key, so a rebuilt lab never restores a stale cache.
func cmdCache(args []string) {
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	dir := fs.String("dir", "", "cache `directory` to administer")
	maxAge := fs.Duration("max-age", 0, "with gc: also drop entries older than this (e.g. 720h; 0 = no age limit)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: interp-lab cache [-dir d] [-max-age dur] stats|gc|clear|fingerprint\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 1 {
		fs.Usage()
		os.Exit(2)
	}
	verb := rest[0]
	switch verb {
	case "fingerprint":
		fmt.Println(rescache.Fingerprint())
		return
	case "stats", "gc", "clear":
	default:
		usageFatalf(fs.Usage, "unknown cache verb %q (want stats, gc, clear or fingerprint)", verb)
	}
	if *dir == "" {
		usageFatalf(fs.Usage, "cache %s requires -dir", verb)
	}
	c, err := rescache.Open(*dir, false)
	if err != nil {
		fatalf("%v", err)
	}
	switch verb {
	case "stats":
		cacheStats(c)
	case "gc":
		removed, freed, err := c.GC(rescache.Fingerprint(), *maxAge)
		if err != nil {
			fatalf("gc: %v", err)
		}
		fmt.Printf("gc: removed %d entries, freed %s (kept fingerprint %s)\n",
			removed, fmtBytes(freed), rescache.Fingerprint())
	case "clear":
		if err := c.Clear(); err != nil {
			fatalf("clear: %v", err)
		}
		fmt.Printf("cleared %s\n", c.Dir())
	}
}

// cacheStats scans the cache and prints a deterministic summary.
func cacheStats(c *rescache.Cache) {
	st, err := c.Scan()
	if err != nil {
		fatalf("stats: %v", err)
	}
	fmt.Printf("cache: %s\n", st.Dir)
	fmt.Printf("fingerprint (this build): %s\n", rescache.Fingerprint())
	fmt.Printf("entries: %d (%s)", st.Entries, fmtBytes(st.Bytes))
	if st.Corrupt > 0 {
		fmt.Printf(", %d corrupt (gc removes them)", st.Corrupt)
	}
	fmt.Println()
	printBreakdown("by fingerprint", st.ByFingerprint, func(fp string) string {
		if fp == rescache.Fingerprint() {
			return " (current)"
		}
		return " (stale)"
	})
	printBreakdown("by experiment", st.ByExperiment, func(string) string { return "" })
}

// printBreakdown lists a count map in sorted key order.
func printBreakdown(title string, counts map[string]int, note func(string) string) {
	if len(counts) == 0 {
		return
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s:\n", title)
	for _, k := range keys {
		fmt.Printf("  %-24s %6d%s\n", k, counts[k], note(k))
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
