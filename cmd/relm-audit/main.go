// Command relm-audit drives the durable validation-job subsystem
// (DESIGN.md decision 11): long-running sweeps of the paper's §4 suites —
// memorization, toxicity, bias, lambada, urlmatch — executed as sharded,
// checkpointed jobs whose per-item results land in a hash-chained JSONL run
// ledger. A killed sweep resumes from its ledger; a finished ledger is
// verifiable for tamper evidence.
//
// Usage:
//
//	relm-audit submit -suite memorization -ledger ./runs        # local run
//	relm-audit submit -suite bias -server http://host:8080      # via relm-serve
//	relm-audit watch  -id job-0001 -server http://host:8080     # follow its results
//	relm-audit resume -id job-0001 -ledger ./runs               # after a crash
//	relm-audit verify -id job-0001 -ledger ./runs               # hash chain
//	relm-audit report -id job-0001 -ledger ./runs -o run.json   # JSON artifact
//	relm-audit suites                                           # list suites
//
// Local mode builds the deterministic synthetic world (-scale, -seed) and
// runs the job in-process; the same flags on resume rebuild the identical
// worklist, which the ledger's item-list hash and model fingerprint check
// before any scoring happens. The -kill-after knob cancels a run after N
// item results — the operational form of the crash the resume path exists
// for.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "resume":
		err = cmdResume(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "suites":
		err = cmdSuites()
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "relm-audit: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "relm-audit:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `relm-audit — durable validation jobs over the ReLM engine

commands:
  submit   submit a validation sweep (local -ledger dir, or remote -server)
  watch    follow a job's results stream on a relm-serve instance to its summary
  resume   resume a killed/cancelled run from its ledger (local)
  verify   validate a run ledger's hash chain, reporting the first broken link
  report   render a JSON summary artifact from a run ledger
  suites   list the built-in validation suites

run 'relm-audit <command> -h' for that command's flags.
`)
}
