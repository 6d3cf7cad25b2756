package wire

import (
	"bytes"
	"crypto/ed25519"
	"strconv"
	"testing"
	"testing/quick"

	"alpenhorn/internal/bls"
)

func TestBufferReaderRoundTrip(t *testing.T) {
	b := NewBuffer(nil)
	b.Uint8(7)
	b.Uint32(123456)
	b.Uint64(1 << 40)
	b.Raw([]byte{1, 2, 3})
	b.Bytes16([]byte("hello"))
	b.Bytes32([]byte("world!"))
	b.String16("str")
	b.PaddedString("padded", 16)

	r := NewReader(b.Bytes())
	if got := r.Uint8(); got != 7 {
		t.Fatalf("Uint8 = %d", got)
	}
	if got := r.Uint32(); got != 123456 {
		t.Fatalf("Uint32 = %d", got)
	}
	if got := r.Uint64(); got != 1<<40 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v", got)
	}
	if got := r.Bytes16(); string(got) != "hello" {
		t.Fatalf("Bytes16 = %q", got)
	}
	if got := r.Bytes32(); string(got) != "world!" {
		t.Fatalf("Bytes32 = %q", got)
	}
	if got := r.String16(); got != "str" {
		t.Fatalf("String16 = %q", got)
	}
	if got := r.PaddedString(16); got != "padded" {
		t.Fatalf("PaddedString = %q", got)
	}
	if err := r.AllConsumed(); err != nil {
		t.Fatal(err)
	}
}

// TestBytes32LengthLimit pins the 32-bit prefix's limit at its boundary:
// 2³² − 1 bytes is the longest value Bytes32 takes, one more panics.
// (The check is the whole of it; no 4 GiB value is built.)
func TestBytes32LengthLimit(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("every length an int can hold fits the prefix")
	}
	limit := uint64(1<<32 - 1)
	if got := prefix32(int(limit)); got != 0xffffffff {
		t.Fatalf("prefix32(2³² − 1) = %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("prefix32(2³²) did not panic")
		}
	}()
	prefix32(int(limit + 1))
}

func TestReaderErrorSticky(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.Uint32() // too short
	if r.Err() == nil {
		t.Fatal("no error after short read")
	}
	if got := r.Uint8(); got != 0 {
		t.Fatal("read after error returned data")
	}
}

func TestPaddedStringRejectsNonzeroPadding(t *testing.T) {
	b := NewBuffer(nil)
	b.PaddedString("ab", 8)
	data := b.Bytes()
	data[5] = 1 // corrupt padding
	r := NewReader(data)
	_ = r.PaddedString(8)
	if r.Err() == nil {
		t.Fatal("nonzero padding accepted (non-canonical encoding)")
	}
}

func TestFriendRequestRoundTrip(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	fr := &FriendRequest{
		SenderEmail:  "alice@example.org",
		SenderKey:    pub,
		PKGSigs:      bytes.Repeat([]byte{2}, bls.SignatureSize),
		DialingKey:   bytes.Repeat([]byte{3}, 32),
		DialingRound: 77,
	}
	fr.SenderSig = ed25519.Sign(priv, fr.SigningMessage())

	enc, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != FriendRequestSize {
		t.Fatalf("encoded size %d, want %d", len(enc), FriendRequestSize)
	}
	got, err := UnmarshalFriendRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.SenderEmail != fr.SenderEmail || got.DialingRound != 77 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !ed25519.Verify(got.SenderKey, got.SigningMessage(), got.SenderSig) {
		t.Fatal("signature broken by round trip")
	}
}

func TestFriendRequestSizeIsConstant(t *testing.T) {
	// Metadata privacy depends on all requests having identical size,
	// regardless of email length.
	pub, priv, _ := ed25519.GenerateKey(nil)
	sizes := map[int]bool{}
	for _, email := range []string{"a@b.c", "much-longer-address@subdomain.example.org"} {
		fr := &FriendRequest{
			SenderEmail: email,
			SenderKey:   pub,
			PKGSigs:     make([]byte, bls.SignatureSize),
			DialingKey:  make([]byte, 32),
		}
		fr.SenderSig = ed25519.Sign(priv, fr.SigningMessage())
		enc, err := fr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		sizes[len(enc)] = true
	}
	if len(sizes) != 1 {
		t.Fatalf("request size varies with email length: %v", sizes)
	}
}

func TestFriendRequestValidation(t *testing.T) {
	pub, _, _ := ed25519.GenerateKey(nil)
	bad := &FriendRequest{
		SenderEmail: string(bytes.Repeat([]byte{'a'}, MaxEmailLen+1)),
		SenderKey:   pub,
		SenderSig:   make([]byte, 64),
		PKGSigs:     make([]byte, bls.SignatureSize),
		DialingKey:  make([]byte, 32),
	}
	if _, err := bad.Marshal(); err == nil {
		t.Fatal("oversized email accepted")
	}
	if _, err := UnmarshalFriendRequest(make([]byte, 10)); err == nil {
		t.Fatal("short encoding accepted")
	}
}

func TestMixPayloadRoundTrip(t *testing.T) {
	p := &MixPayload{Mailbox: 5, Body: make([]byte, AddFriendPayloadSize-4)}
	enc := p.Marshal()
	if len(enc) != AddFriendPayloadSize {
		t.Fatalf("payload size %d, want %d", len(enc), AddFriendPayloadSize)
	}
	got, err := UnmarshalMixPayload(AddFriend, enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mailbox != 5 || len(got.Body) != len(p.Body) {
		t.Fatal("payload round trip mismatch")
	}
	if _, err := UnmarshalMixPayload(Dialing, enc); err == nil {
		t.Fatal("add-friend payload accepted as dialing payload")
	}
}

func TestRoundSettingsVerify(t *testing.T) {
	mixPub, mixPriv, _ := ed25519.GenerateKey(nil)
	pkgPub, pkgPriv, _ := ed25519.GenerateKey(nil)

	onionKey := bytes.Repeat([]byte{1}, 32)
	masterKey := bytes.Repeat([]byte{2}, 128)
	rs := &RoundSettings{
		Service:      AddFriend,
		Round:        9,
		NumMailboxes: 4,
		Mixers: []MixerRoundKey{{
			OnionKey: onionKey,
			Sig:      ed25519.Sign(mixPriv, MixerKeyMessage(AddFriend, 9, onionKey)),
		}},
		PKGs: []PKGRoundKey{{
			MasterKey: masterKey,
			Sig:       ed25519.Sign(pkgPriv, PKGKeyMessage(9, masterKey)),
		}},
	}
	if err := rs.Verify([]ed25519.PublicKey{mixPub}, []ed25519.PublicKey{pkgPub}); err != nil {
		t.Fatal(err)
	}

	// Tampered mailbox count is caught structurally; tampered keys by
	// signatures.
	rs.NumMailboxes = 0
	if err := rs.Verify([]ed25519.PublicKey{mixPub}, []ed25519.PublicKey{pkgPub}); err == nil {
		t.Fatal("zero mailboxes accepted")
	}
	rs.NumMailboxes = 4
	rs.Mixers[0].OnionKey[0] ^= 1
	if err := rs.Verify([]ed25519.PublicKey{mixPub}, []ed25519.PublicKey{pkgPub}); err == nil {
		t.Fatal("tampered mixer key accepted")
	}
	rs.Mixers[0].OnionKey[0] ^= 1
	rs.PKGs[0].MasterKey[0] ^= 1
	if err := rs.Verify([]ed25519.PublicKey{mixPub}, []ed25519.PublicKey{pkgPub}); err == nil {
		t.Fatal("tampered PKG key accepted")
	}
	rs.PKGs[0].MasterKey[0] ^= 1
	if err := rs.Verify(nil, []ed25519.PublicKey{pkgPub}); err == nil {
		t.Fatal("wrong mixer count accepted")
	}
}

// TestRoundSettingsPairingVersionSignatureBinding pins that the deprecated
// PairingVersion field, which bench/walk.go still sets, binds nothing: a
// PKG signature verifies and the settings encode byte for byte the same
// whatever it holds, and a signature under the Tate-era domain tag never
// verifies, so no former tier's round key can be replayed into a round.
func TestRoundSettingsPairingVersionSignatureBinding(t *testing.T) {
	pkgPub, pkgPriv, _ := ed25519.GenerateKey(nil)
	masterKey := bytes.Repeat([]byte{2}, 128)
	rs := &RoundSettings{
		Service:      AddFriend,
		Round:        9,
		NumMailboxes: 4,
		PKGs: []PKGRoundKey{{
			MasterKey: masterKey,
			Sig:       ed25519.Sign(pkgPriv, PKGKeyMessage(9, masterKey)),
		}},
	}
	enc := rs.Marshal()
	for _, v := range []uint8{0, 1, 2, 255} {
		rs.PairingVersion = v
		if err := rs.Verify(nil, []ed25519.PublicKey{pkgPub}); err != nil {
			t.Fatalf("PairingVersion=%d: %v", v, err)
		}
		if !bytes.Equal(rs.Marshal(), enc) {
			t.Fatalf("PairingVersion=%d changed the settings encoding", v)
		}
	}
	tate := NewBuffer(nil)
	tate.Raw([]byte("alpenhorn/pkg-round-key:"))
	tate.Uint32(9)
	tate.Raw(masterKey)
	rs.PKGs[0].Sig = ed25519.Sign(pkgPriv, tate.Bytes())
	for _, v := range []uint8{0, 2} {
		rs.PairingVersion = v
		if err := rs.Verify(nil, []ed25519.PublicKey{pkgPub}); err == nil {
			t.Fatalf("PairingVersion=%d: Tate-era PKG signature verified", v)
		}
	}
}

func TestRoundSettingsMarshalRoundTrip(t *testing.T) {
	rs := &RoundSettings{
		Service:      Dialing,
		Round:        3,
		NumMailboxes: 2,
		Mixers: []MixerRoundKey{
			{OnionKey: []byte{1, 2}, Sig: []byte{3}},
			{OnionKey: []byte{4}, Sig: []byte{5, 6}},
		},
	}
	got, err := UnmarshalRoundSettings(rs.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != Dialing || got.Round != 3 || got.NumMailboxes != 2 || len(got.Mixers) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !bytes.Equal(got.Mixers[1].Sig, []byte{5, 6}) {
		t.Fatal("mixer field mismatch")
	}
	if _, err := UnmarshalRoundSettings(rs.Marshal()[:3]); err == nil {
		t.Fatal("truncated settings accepted")
	}
}

func TestMailboxID(t *testing.T) {
	// Deterministic, in range, spread across mailboxes.
	if MailboxID("alice@example.org", 7) != MailboxID("alice@example.org", 7) {
		t.Fatal("mailbox ID not deterministic")
	}
	seen := map[uint32]bool{}
	emails := []string{"a@x", "b@x", "c@x", "d@x", "e@x", "f@x", "g@x", "h@x"}
	for _, e := range emails {
		id := MailboxID(e, 4)
		if id >= 4 {
			t.Fatalf("mailbox ID %d out of range", id)
		}
		seen[id] = true
	}
	if len(seen) < 2 {
		t.Fatal("mailbox IDs suspiciously concentrated")
	}
}

func TestPaddedStringProperty(t *testing.T) {
	prop := func(raw []byte) bool {
		s := string(raw)
		if len(s) > 32 {
			s = s[:32]
		}
		b := NewBuffer(nil)
		b.PaddedString(s, 32)
		r := NewReader(b.Bytes())
		got := r.PaddedString(32)
		return r.Err() == nil && got == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzUnmarshalRoundSettings holds the settings decoder, which the entry
// server's entry.events and entry.settings hand every client, to three
// rules on arbitrary input: it never panics, an accepted input re-Marshals
// to exactly itself (one encoding per settings value), and no trailing
// byte is accepted — including the pairing-version byte that settings of
// the former optimal-ate tier appended.
func FuzzUnmarshalRoundSettings(f *testing.F) {
	signed := (&RoundSettings{
		Service:      AddFriend,
		Round:        7,
		NumMailboxes: 3,
		Mixers:       []MixerRoundKey{{OnionKey: []byte{1, 2}, Sig: []byte{3}}},
		PKGs:         []PKGRoundKey{{MasterKey: []byte{4}, Sig: []byte{5, 6}}},
	}).Marshal()
	f.Add(signed)
	f.Add(append(append([]byte(nil), signed...), 2)) // a former v2 encoding
	f.Add(signed[:len(signed)-1])
	f.Add((&RoundSettings{Service: Dialing, Round: 1, NumMailboxes: 1}).Marshal())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := UnmarshalRoundSettings(data)
		if err != nil {
			return
		}
		if got := rs.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x but it re-marshals to %x", data, got)
		}
		if _, err := UnmarshalRoundSettings(append(append([]byte(nil), data...), 2)); err == nil {
			t.Fatalf("trailing byte accepted after %x", data)
		}
	})
}

// FuzzUnmarshalFriendRequest holds the friend-request decoder to two rules
// on arbitrary input: it never panics, and an accepted input re-Marshals to
// exactly itself. A client runs it on every plaintext a trial decryption
// of its mailbox yields, and anyone who can encrypt to the client's
// identity chooses that plaintext.
func FuzzUnmarshalFriendRequest(f *testing.F) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		f.Fatal(err)
	}
	fr := &FriendRequest{
		SenderEmail:  "alice@example.org",
		SenderKey:    pub,
		PKGSigs:      bytes.Repeat([]byte{2}, bls.SignatureSize),
		DialingKey:   bytes.Repeat([]byte{3}, 32),
		DialingRound: 77,
	}
	fr.SenderSig = ed25519.Sign(priv, fr.SigningMessage())
	enc, err := fr.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(make([]byte, FriendRequestSize))
	overlong := append([]byte(nil), enc...)
	overlong[0] = MaxEmailLen + 1
	f.Add(overlong)
	padded := append([]byte(nil), enc...)
	padded[emailFieldSize-1] = 1 // nonzero padding after the email
	f.Add(padded)
	f.Add(enc[:len(enc)-1])
	f.Add([]byte{})
	// The request with its multisignature as a 64-byte uncompressed G1
	// point, the size before points were compressed: refused.
	f.Add(append(append(append([]byte(nil), enc[:emailFieldSize+32+64]...), bytes.Repeat([]byte{2}, 64)...), enc[emailFieldSize+32+64+bls.SignatureSize:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := UnmarshalFriendRequest(data)
		if err != nil {
			return
		}
		got, err := fr.Marshal()
		if err != nil {
			t.Fatalf("accepted %x but it does not re-marshal: %v", data, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("accepted %x but it re-marshals to %x", data, got)
		}
	})
}

// FuzzUnmarshalMixPayload holds the innermost-payload decoder, which the
// last mixer runs on every onion it peels, to the same two rules for both
// services: no panic, and an accepted input re-Marshals to exactly itself.
func FuzzUnmarshalMixPayload(f *testing.F) {
	f.Add((&MixPayload{Mailbox: 5, Body: make([]byte, AddFriendPayloadSize-4)}).Marshal())
	f.Add((&MixPayload{Mailbox: CoverMailbox, Body: bytes.Repeat([]byte{9}, DialPayloadSize-4)}).Marshal())
	f.Add(make([]byte, AddFriendPayloadSize+1))
	f.Add(make([]byte, DialPayloadSize-1))
	f.Add([]byte{})
	// An add-friend payload with 64-byte G1 points (the multisignature and
	// the ciphertext element), as sent before points were compressed.
	f.Add(make([]byte, AddFriendPayloadSize+2*32))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range []Service{AddFriend, Dialing} {
			m, err := UnmarshalMixPayload(s, data)
			if err != nil {
				continue
			}
			if got := m.Marshal(); !bytes.Equal(got, data) {
				t.Fatalf("%s: accepted %x but it re-marshals to %x", s, data, got)
			}
		}
	})
}
