package cache

// HTTPStore is the remote shared-CAS backend (DESIGN.md §15): a Store
// speaking a four-verb blob protocol to a CASHandler (or anything
// wire-compatible). It is what makes per-unit checker results
// fleet-wide shared state: a coordinator and N workers all point their
// caches at one URL and content addressing does the rest — the protocol
// needs no invalidation verbs because keys change when inputs change.
//
// Wire protocol (all paths relative to the configured base URL):
//
//	GET    <base>/<key>       200 blob | 404
//	HEAD   <base>/<key>       200      | 404
//	PUT    <base>/<key>       204
//	POST   <base>/?op=get     {"keys":[...]} -> {"entries":{key: base64}}
//	POST   <base>/?op=put     {"entries":{key: base64}} -> 204
//
// Batch POSTs go to <base>/ (trailing slash, empty key): a bare
// <base> would trip ServeMux's trailing-slash 301 on prefix-mounted
// servers, and Go clients rewrite a redirected POST into a GET.
//
// Concurrent identical Gets coalesce through a singleflight group, so
// K engines demanding the same entry at once cost one fetch — the
// shared-CAS half of the request-coalescing story.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/singleflight"
)

// httpResult carries one coalesced fetch outcome.
type httpResult struct {
	data []byte
	ok   bool
}

// HTTPStore is a Store backed by a remote CAS endpoint. Safe for
// concurrent use. Errors degrade to misses on the read side and are
// returned on the write side — a flaky CAS costs recomputation, never
// corruption (the consumer treats undecodable entries as misses too).
type HTTPStore struct {
	base    string
	client  *http.Client
	maxBlob int64 // casMaxBlob; tests shrink it

	// Traffic counters for stats surfaces (atomic).
	fetches   atomic.Int64 // GETs actually sent (after coalescing)
	coalesced atomic.Int64 // Gets answered by piggybacking on an in-flight fetch
	batchGets atomic.Int64 // batch-get round trips
	batchPuts atomic.Int64 // batch-put round trips

	flight singleflight.Group[httpResult]
}

// NewHTTPStore opens a client for the CAS at base (e.g.
// "http://coordinator:8745/v1/cas"). A nil client gets a dedicated
// one with a 30s timeout.
func NewHTTPStore(base string, client *http.Client) *HTTPStore {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPStore{base: strings.TrimRight(base, "/"), client: client, maxBlob: casMaxBlob}
}

// Fetches returns the number of GET round-trips actually performed.
func (s *HTTPStore) Fetches() int64 { return s.fetches.Load() }

// CoalescedGets returns the number of Gets served by an in-flight
// fetch instead of their own round-trip.
func (s *HTTPStore) CoalescedGets() int64 { return s.coalesced.Load() }

// FlightWaiters reports how many Get callers are attached to the
// in-flight fetch for key (0 when none is in flight). Tests use it to
// deterministically wait for followers to pile onto a held leader.
func (s *HTTPStore) FlightWaiters(key string) int { return s.flight.Waiters(key) }

func (s *HTTPStore) keyURL(key string) string { return s.base + "/" + key }

// Get fetches the blob under key; any transport or status failure is
// a miss. Concurrent Gets of the same key share one round-trip.
func (s *HTTPStore) Get(key string) ([]byte, bool) {
	res, follower, err := s.flight.Do(context.Background(), key, func(context.Context) httpResult {
		s.fetches.Add(1)
		return s.fetch(key)
	})
	if follower {
		s.coalesced.Add(1)
	}
	if err != nil {
		return nil, false
	}
	return res.data, res.ok
}

// ReadCapped reads r to its end, failing once it has yielded more than
// max bytes: nothing a peer sends is read unbounded.
func ReadCapped(r io.Reader, max int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err == nil && int64(len(data)) > max {
		err = fmt.Errorf("body exceeds %d bytes", max)
	}
	return data, err
}

// fetch is the uncoalesced GET. An oversize blob is a miss.
func (s *HTTPStore) fetch(key string) httpResult {
	resp, err := s.client.Get(s.keyURL(key))
	if err != nil {
		return httpResult{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return httpResult{}
	}
	data, err := ReadCapped(resp.Body, s.maxBlob)
	if err != nil {
		return httpResult{}
	}
	return httpResult{data: data, ok: true}
}

// Put stores the blob under key.
func (s *HTTPStore) Put(key string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, s.keyURL(key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cas put %s: status %d", key, resp.StatusCode)
	}
	return nil
}

// Has probes for key with a HEAD request.
func (s *HTTPStore) Has(key string) bool {
	req, err := http.NewRequest(http.MethodHead, s.keyURL(key), nil)
	if err != nil {
		return false
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// batchGetRequest / batchPutRequest are the POST bodies. Blobs ride
// as base64 inside JSON ([]byte marshals that way for free).
type batchGetRequest struct {
	Keys []string `json:"keys"`
}

type batchEnvelope struct {
	Entries map[string][]byte `json:"entries"`
}

// GetBatch fetches many keys in one round-trip; on any failure, an
// oversize reply included, it returns the empty result (every key a
// miss — the caller recomputes).
func (s *HTTPStore) GetBatch(keys []string) map[string][]byte {
	if len(keys) == 0 {
		return map[string][]byte{}
	}
	s.batchGets.Add(1)
	body, err := json.Marshal(batchGetRequest{Keys: keys})
	if err != nil {
		return map[string][]byte{}
	}
	resp, err := s.client.Post(s.base+"/?op=get", "application/json", bytes.NewReader(body))
	if err != nil {
		return map[string][]byte{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return map[string][]byte{}
	}
	var env batchEnvelope
	if data, err := ReadCapped(resp.Body, s.maxBlob); err != nil || json.Unmarshal(data, &env) != nil {
		return map[string][]byte{}
	}
	if env.Entries == nil {
		return map[string][]byte{}
	}
	return env.Entries
}

// batchPutBody renders a batchEnvelope into one buffer of its final
// size. A fleet worker puts a whole phase's records at once;
// json.Marshal would grow its buffer by doubling to several times that
// and leave it pooled.
func batchPutBody(entries map[string][]byte) []byte {
	n := len(`{"entries":{}}`)
	for k, v := range entries {
		n += len(k) + base64.StdEncoding.EncodedLen(len(v)) + len(`"":"",`)
	}
	buf := append(make([]byte, 0, n), `{"entries":{`...)
	for k, v := range entries {
		if buf[len(buf)-1] != '{' {
			buf = append(buf, ',')
		}
		key, _ := json.Marshal(k) // a string: Marshal cannot fail
		buf = append(append(buf, key...), ':', '"')
		buf = append(base64.StdEncoding.AppendEncode(buf, v), '"')
	}
	return append(buf, '}', '}')
}

// PutBatch stores many entries in one round-trip.
func (s *HTTPStore) PutBatch(entries map[string][]byte) error {
	if len(entries) == 0 {
		return nil
	}
	s.batchPuts.Add(1)
	resp, err := s.client.Post(s.base+"/?op=put", "application/json", bytes.NewReader(batchPutBody(entries)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cas batch put: status %d", resp.StatusCode)
	}
	return nil
}
