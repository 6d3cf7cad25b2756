package rpc

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"testing"

	"alpenhorn/internal/email"
	"alpenhorn/internal/pkgserver"
)

// FuzzPKGArgs sends a PKG's pkg.* handlers params the fuzzer chooses,
// through the JSON decode a frame's params take on the way to them; pick
// chooses the method. The PKG holds one verified account, whose signing
// key the fuzzer never sees, and an open round. After every call, and
// whatever calls came before it in the process: nothing panicked; params
// that do not decode are refused; the account is still verified under its
// own key, since registering, confirming and deregistering it all need
// what only its owner has; no extraction has ever succeeded, since each
// needs a verified account's signature; and pkg.info still answers with
// the PKG's keys.
func FuzzPKGArgs(f *testing.F) {
	const victim = "victim@example.org"
	b64 := func(n int) string { return base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{7}, n)) }
	for _, seed := range []struct {
		pick   uint8
		params string
	}{
		{0, `{}`},
		{1, `{"email":"` + victim + `","signing_key":"` + b64(32) + `"}`},
		{1, `{"email":"new@example.org","signing_key":"` + b64(32) + `"}`},
		{1, `{"email":"no-at-sign","signing_key":"` + b64(31) + `"}`},
		{2, `{"email":"` + victim + `","token":"guess"}`},
		{2, `{"email":"new@example.org","token":""}`},
		{3, `{"email":"` + victim + `","round":1,"sig":"` + b64(64) + `"}`},
		{3, `{"email":"` + victim + `","round":4294967295,"sig":null}`},
		{4, `{"email":"` + victim + `","sig":"` + b64(64) + `"}`},
		{5, `{"round":2}`},
		{6, `{"round":1}`},
		{3, `{"email":7}`},
		{1, `{"signing_key":"not base64"}`},
		{5, `{"round":-1}`},
	} {
		f.Add(seed.pick, []byte(seed.params))
	}

	provider := email.NewInMemoryProvider()
	pkg, err := pkgserver.New(pkgserver.Config{Name: "fuzz", Provider: provider})
	if err != nil {
		f.Fatal(err)
	}
	key, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	if err := pkg.Register(victim, key); err != nil {
		f.Fatal(err)
	}
	if err := pkg.ConfirmRegistration(victim, provider.Inbox(victim)[0].Body); err != nil {
		f.Fatal(err)
	}
	if _, err := pkg.NewRound(1); err != nil {
		f.Fatal(err)
	}
	s := NewServer()
	RegisterPKG(s, pkg)
	methods := []struct {
		name string
		args func() any
	}{
		{"pkg.info", func() any { return new(struct{}) }},
		{"pkg.register", func() any { return new(registerArgs) }},
		{"pkg.confirm", func() any { return new(confirmArgs) }},
		{"pkg.extract", func() any { return new(extractArgs) }},
		{"pkg.deregister", func() any { return new(deregisterArgs) }},
		{"pkg.newround", func() any { return new(roundArgs) }},
		{"pkg.closeround", func() any { return new(roundArgs) }},
	}

	f.Fuzz(func(t *testing.T, pick uint8, params []byte) {
		m := methods[int(pick)%len(methods)]
		_, err := s.handlers[m.name]("127.0.0.1:1", json.RawMessage(params), nil)
		if len(params) > 0 && json.Unmarshal(params, m.args()) != nil && err == nil {
			t.Fatalf("%s accepted params %q that do not decode", m.name, params)
		}
		if got, ok := pkg.Registered(victim); !ok || !got.Equal(key) {
			t.Fatalf("after %s %q the account is verified %v under %x, want %x", m.name, params, ok, got, key)
		}
		if n := pkg.Extractions(); n != 0 {
			t.Fatalf("after %s %q the PKG has served %d extractions without a signature", m.name, params, n)
		}
		info, err := s.handlers["pkg.info"]("127.0.0.1:1", nil, nil)
		if got, ok := info.(PKGInfo); err != nil || !ok || !bytes.Equal(got.SigningKey, pkg.SigningKey()) {
			t.Fatalf("after %s %q pkg.info answers %+v, %v", m.name, params, info, err)
		}
	})
}
