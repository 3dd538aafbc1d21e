package cache

// HTTPStore is the remote shared-CAS backend (DESIGN.md §15): a Store
// speaking a two-operation batch protocol to a CASServer (or anything
// wire-compatible). It is what makes per-unit checker results
// fleet-wide shared state: a coordinator and N workers all point their
// caches at one URL and content addressing does the rest — the protocol
// needs no invalidation verbs because keys change when inputs change.
//
// Wire protocol (paths relative to the configured base URL):
//
//	POST   <base>/?op=get     {"keys":[...]} -> {"entries":{key: base64}}
//	POST   <base>/?op=put     {"entries":{key: base64}} -> 204
//
// The POSTs go to <base>/ (trailing slash, empty key): a bare <base>
// would trip ServeMux's trailing-slash 301 on prefix-mounted servers,
// and Go clients rewrite a redirected POST into a GET. Get and Put are
// one-key batches: the traffic this store carries is whole phases of
// unit records, so a single-key route or GET coalescing would have
// nothing to do.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// HTTPStore is a Store backed by a remote CAS endpoint. Safe for
// concurrent use. Errors degrade to misses on the read side and are
// returned on the write side — a flaky CAS costs recomputation, never
// corruption (the consumer treats undecodable entries as misses too).
type HTTPStore struct {
	base    string
	client  *http.Client
	maxBlob int64 // MaxWireBody; tests shrink it
}

// NewHTTPStore opens a client for the CAS at base (e.g.
// "http://coordinator:8745/v1/cas"). A nil client gets a dedicated
// one with a 30s timeout.
func NewHTTPStore(base string, client *http.Client) *HTTPStore {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPStore{base: strings.TrimRight(base, "/"), client: client, maxBlob: MaxWireBody}
}

// Get is a one-key GetBatch: any transport or status failure is a miss.
func (s *HTTPStore) Get(key string) ([]byte, bool) {
	data, ok := s.GetBatch([]string{key})[key]
	return data, ok
}

// Put is a one-key PutBatch.
func (s *HTTPStore) Put(key string, data []byte) error {
	return s.PutBatch(map[string][]byte{key: data})
}

// MaxWireBody bounds every body a peer sends, read either way: a daemon
// request (a source tree or a checker), a fleet work request and its
// reply, and a CAS batch envelope, base64 included, so each blob in it
// too. Unit entries for large trees run to a few MB; 256 MiB leaves two
// orders of magnitude of headroom while keeping a misbehaving peer from
// exhausting the host.
const MaxWireBody = 256 << 20

// ReadCapped reads r to its end, failing once it has yielded more than
// max bytes: nothing a peer sends is read unbounded.
func ReadCapped(r io.Reader, max int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err == nil && int64(len(data)) > max {
		err = fmt.Errorf("body exceeds %d bytes", max)
	}
	return data, err
}

// batchGetRequest / batchEnvelope are the POST bodies. Blobs ride as
// base64 inside JSON ([]byte marshals that way for free).
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
