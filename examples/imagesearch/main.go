// Imagesearch: the full ferret application — content-based similarity
// search over a synthetic image corpus — run end-to-end through the
// hyperqueue pipeline and compared against its serial elision. This is
// the paper's §6.1 workload as a user-facing program.
//
// Run: go run ./examples/imagesearch [-workers N] [-images N] [-model serial|pthreads|tbb|objects|hyperqueue]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/workloads/ferret"
	"repro/swan"
)

func main() {
	workers := flag.Int("workers", runtime.NumCPU(), "worker slots / cores")
	images := flag.Int("images", 128, "query images")
	model := flag.String("model", "hyperqueue", "serial, pthreads, tbb, objects or hyperqueue")
	show := flag.Int("show", 3, "result lines to print")
	flag.Parse()

	p := ferret.DefaultParams()
	p.NumImages = *images
	corpus := ferret.NewCorpus(p)

	start := time.Now()
	var out *ferret.Output
	switch *model {
	case "serial":
		out = ferret.RunSerial(corpus, p)
	case "pthreads":
		out = ferret.RunPthreads(corpus, p, *workers+4, 4*(*workers))
	case "tbb":
		out = ferret.RunTBB(corpus, p, *workers, 4*(*workers))
	case "objects":
		out = ferret.RunObjects(swan.New(*workers), corpus, p)
	case "hyperqueue":
		out = ferret.RunHyperqueue(swan.New(*workers), corpus, p, 16)
	default:
		fmt.Printf("unknown model %q\n", *model)
		return
	}
	elapsed := time.Since(start)

	fmt.Printf("ferret/%s: %d queries in %v on %d workers (checksum %x)\n",
		*model, out.Queries, elapsed.Round(time.Millisecond), *workers, out.Checksum)
	lines := strings.SplitN(string(out.Text), "\n", *show+1)
	for i := 0; i < *show && i < len(lines); i++ {
		fmt.Println("  ", lines[i])
	}

	if *model != "serial" {
		ref := ferret.RunSerial(corpus, p)
		if ref.Queries != out.Queries || ref.Checksum != out.Checksum || !bytes.Equal(ref.Text, out.Text) {
			fmt.Fprintln(os.Stderr, "MISMATCH against the serial elision")
			os.Exit(1)
		}
		fmt.Println("verified against the serial elision ✓")
	}
}
