package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"rtf/internal/membership"
)

// This file carries the dynamic-membership control plane on the same
// wire as ingest and queries: MsgView frames push a full epoch view to
// backends, MsgShardTransfer frames install one virtual shard's
// serialized state on its new owner during a reshard (the gateway
// exports it as the shard's raw sums, MsgShardSums, and folds them), and
// MsgMemberAck confirms that a view or transfer was applied. The shard
// state payload is the protocol package's state encoding — the same
// bytes the durability snapshots use — so a reshard handoff and a crash
// recovery restore through one code path.

// viewWireVersion is the version byte of every membership frame.
// Decoders reject frames from a newer revision instead of misparsing.
const viewWireVersion = 1

// MaxShardStateLen bounds the declared payload length of a shard
// transfer frame, mirroring persist.MaxStateLen.
const MaxShardStateLen = 1 << 26

// EncodeView writes one MsgView frame pushing the full cluster view.
func (e *Encoder) EncodeView(v membership.View) error {
	if err := v.Validate(); err != nil {
		return err
	}
	b := e.scratch[:0]
	b = append(b, byte(MsgView), viewWireVersion)
	b = binary.AppendUvarint(b, v.Epoch)
	b = binary.AppendUvarint(b, uint64(v.K))
	b = binary.AppendUvarint(b, uint64(v.NumShards))
	b = binary.AppendUvarint(b, uint64(len(v.Members)))
	for _, m := range v.Members {
		b = binary.AppendUvarint(b, uint64(len(m.ID)))
		b = append(b, m.ID...)
		b = binary.AppendUvarint(b, uint64(len(m.Addr)))
		b = append(b, m.Addr...)
	}
	return e.writeScratch(b)
}

// readViewBody decodes a MsgView frame body (type byte already
// consumed). Every count is validated before allocation, and the
// decoded view must pass membership validation (unique bounded IDs,
// 1 <= K <= members), so a corrupt frame cannot produce a usable but
// inconsistent placement map.
func (d *Decoder) readViewBody() (membership.View, error) {
	ver, err := d.r.ReadByte()
	if err != nil {
		return membership.View{}, truncated(err)
	}
	if ver != viewWireVersion {
		return membership.View{}, fmt.Errorf("transport: unsupported view version %d", ver)
	}
	epoch, err := binary.ReadUvarint(d.r)
	if err != nil {
		return membership.View{}, truncated(err)
	}
	k, err := binary.ReadUvarint(d.r)
	if err != nil {
		return membership.View{}, truncated(err)
	}
	shards, err := binary.ReadUvarint(d.r)
	if err != nil {
		return membership.View{}, truncated(err)
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return membership.View{}, truncated(err)
	}
	if k > uint64(membership.MaxMembers) || shards > uint64(membership.MaxShards) || n > uint64(membership.MaxMembers) {
		return membership.View{}, fmt.Errorf("transport: view frame dims (k=%d shards=%d members=%d) exceed limits", k, shards, n)
	}
	v := membership.View{Epoch: epoch, K: int(k), NumShards: int(shards), Members: make([]membership.Member, n)}
	for i := range v.Members {
		id, err := d.readBoundedString()
		if err != nil {
			return membership.View{}, err
		}
		addr, err := d.readBoundedString()
		if err != nil {
			return membership.View{}, err
		}
		v.Members[i] = membership.Member{ID: id, Addr: addr}
	}
	if err := v.Validate(); err != nil {
		return membership.View{}, err
	}
	return v, nil
}

// readBoundedString reads a uvarint-prefixed string of at most
// membership.MaxIDLen bytes.
func (d *Decoder) readBoundedString() (string, error) {
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return "", truncated(err)
	}
	if n == 0 || n > membership.MaxIDLen {
		return "", fmt.Errorf("transport: view string length %d outside [1..%d]", n, membership.MaxIDLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", truncated(err)
	}
	return string(buf), nil
}

// TakeView returns the payload of the most recent MsgView frame and
// releases the Decoder's reference. Call it exactly once after Next
// (or NextBatch) surfaced the marker message.
func (d *Decoder) TakeView() membership.View {
	v := d.view
	d.view = membership.View{}
	return v
}

// TakeShardState returns the payload of the most recent
// MsgShardTransfer frame and releases the Decoder's reference. Call
// it exactly once after Next surfaced the marker message (the marker
// carries the shard number).
func (d *Decoder) TakeShardState() []byte {
	b := d.shardState
	d.shardState = nil
	return b
}

// appendShardPayload appends a MsgShardTransfer frame: type byte,
// version, uvarint shard, uvarint payload length, payload bytes.
func appendShardPayload(b []byte, shard int, state []byte) ([]byte, error) {
	if shard < 0 || shard > membership.MaxShards {
		return nil, fmt.Errorf("transport: shard %d outside [0..%d]", shard, membership.MaxShards)
	}
	if len(state) > MaxShardStateLen {
		return nil, fmt.Errorf("transport: shard state of %d bytes exceeds limit %d", len(state), MaxShardStateLen)
	}
	b = append(b, byte(MsgShardTransfer), viewWireVersion)
	b = binary.AppendUvarint(b, uint64(shard))
	b = binary.AppendUvarint(b, uint64(len(state)))
	b = append(b, state...)
	return b, nil
}

// EncodeShardTransfer writes one MsgShardTransfer frame asking the
// receiving backend to install the shard state (replacing whatever
// copy it holds for that shard).
func (e *Encoder) EncodeShardTransfer(shard int, state []byte) error {
	b, err := appendShardPayload(e.scratch[:0], shard, state)
	if err != nil {
		return err
	}
	return e.writeScratch(b)
}

// readShardPayloadBody decodes a shard transfer frame (type byte
// already consumed): version, shard, bounded state bytes.
func (d *Decoder) readShardPayloadBody() (int32, []byte, error) {
	ver, err := d.r.ReadByte()
	if err != nil {
		return 0, nil, truncated(err)
	}
	if ver != viewWireVersion {
		return 0, nil, fmt.Errorf("transport: unsupported shard frame version %d", ver)
	}
	shard, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, nil, truncated(err)
	}
	if shard > membership.MaxShards {
		return 0, nil, fmt.Errorf("transport: shard %d exceeds limit %d", shard, membership.MaxShards)
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, nil, truncated(err)
	}
	if n > MaxShardStateLen {
		return 0, nil, fmt.Errorf("transport: shard state length %d exceeds limit %d", n, MaxShardStateLen)
	}
	state := make([]byte, n)
	if _, err := io.ReadFull(d.r, state); err != nil {
		return 0, nil, truncated(err)
	}
	return int32(shard), state, nil
}

// EncodeMemberAck writes the backend's response to a MsgView or
// MsgShardTransfer frame: applied or refused.
func (e *Encoder) EncodeMemberAck(applied bool) error { return e.encodeAck(MsgMemberAck, applied) }

// ReadMemberAck decodes one MsgMemberAck. It must be called when an
// ack is the next frame on the stream — after sending a view or
// transfer frame — and fails on any other frame type.
func (d *Decoder) ReadMemberAck() (bool, error) { return d.readAck(MsgMemberAck, "member ack") }
