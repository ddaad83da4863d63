package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
)

// remote mode talks to a relm-serve instance with jobs enabled
// (-jobs-dir): submissions POST /v1/jobs, and watch follows the job's
// results stream, GET /v1/jobs/{id}/results?follow=1, to its summary.

func apiURL(server, path string) string {
	return strings.TrimRight(server, "/") + path
}

func decodeOrError(resp *http.Response, v interface{}) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (%s)", e.Error, resp.Status)
		}
		return fmt.Errorf("server: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// doWithRetry issues the request up to 5 times, backing off on 429 (the
// admission limits) and 503 (drain or injected outage): for the server's
// Retry-After when present, else for a fallback that starts at 500ms and
// doubles — either way capped at 5s, so a misconfigured server can't stall
// the CLI for minutes. Any other response — success or failure — returns
// immediately with its body unread; the last rejection is returned for the
// caller to report.
func doWithRetry(do func() (*http.Response, error)) (*http.Response, error) {
	fallback := 500 * time.Millisecond
	for attempt := 1; ; attempt++ {
		resp, err := do()
		if err != nil {
			return nil, err
		}
		if (resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable) || attempt == 5 {
			return resp, nil
		}
		wait := fallback
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			wait = time.Duration(secs) * time.Second
		}
		wait = min(wait, 5*time.Second)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		fmt.Fprintf(os.Stderr, "server rejected (%s); retrying in %v\n", resp.Status, wait)
		time.Sleep(wait)
		fallback *= 2
	}
}

func submitRemote(server string, spec jobs.Spec) error {
	payload, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := doWithRetry(func() (*http.Response, error) {
		return http.Post(apiURL(server, "/v1/jobs"), "application/json", bytes.NewReader(payload))
	})
	if err != nil {
		return err
	}
	var snap jobs.Snapshot
	if err := decodeOrError(resp, &snap); err != nil {
		return err
	}
	fmt.Printf("submitted %s (suite=%s model=%s items=%d)\n",
		snap.ID, snap.Suite, snap.Model, snap.Progress.Items)
	fmt.Printf("watch with: relm-audit watch -id %s -server %s\n", snap.ID, server)
	return nil
}

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	id := fs.String("id", "", "job id")
	server := fs.String("server", "", "relm-serve base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *server == "" {
		return fmt.Errorf("watch requires -id and -server")
	}
	return watchRemote(os.Stdout, *server, *id)
}

// watchRemote reads the job's follow stream, GET
// /v1/jobs/{id}/results?follow=1, printing a line per result as the server
// streams it and then the summary. A server that is overloaded or draining
// on connect is outwaited through doWithRetry.
func watchRemote(w io.Writer, server, id string) error {
	resp, err := doWithRetry(func() (*http.Response, error) {
		return http.Get(apiURL(server, "/v1/jobs/"+id+"/results?follow=1"))
	})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeOrError(resp, nil)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev struct {
			Type   string          `json:"type"`
			Result jobs.ItemResult `json:"result"`
			Job    jobs.Snapshot   `json:"job"`
		}
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("job %s: results stream ended without a summary: %v", id, err)
		}
		if ev.Type == "result" {
			printResult(w, id, ev.Result)
			continue
		}
		snap := ev.Job
		printProgress(w, snap)
		switch snap.Status {
		case jobs.StatusCompleted:
			return nil
		case jobs.StatusCancelled:
			fmt.Fprintf(w, "cancelled; resume with: POST %s\n", apiURL(server, "/v1/jobs/"+id+"/resume"))
			return nil
		default:
			return fmt.Errorf("job %s %s: %s", snap.ID, snap.Status, snap.Error)
		}
	}
}
