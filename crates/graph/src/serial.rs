//! Compact binary serialization of graphs.
//!
//! The format is deliberately simple and versioned — enough for the
//! workspace's CLI to pass locked models between the "IP owner" and
//! "adversary" roles as files, without pulling in a serialization
//! framework:
//!
//! ```text
//! magic   b"RLCKGRPH"          8 bytes
//! version u32-le               currently 1
//! node count, input id, output id, key slot count   (u64-le each)
//! per node: op tag u8, op payload, input count + input ids
//! ```
//!
//! Tensors are stored as `rank, dims…, f64-le data`; all integers are
//! little-endian `u64` unless noted. Round-tripping any graph built by the
//! workspace reproduces it bit-exactly.

use crate::graph::{Graph, GraphError, Node, NodeId};
use crate::key::{KeySlot, UnitLayout};
use crate::op::{Op, TriggerKind, WeightLock};
use relock_tensor::im2col::ConvGeometry;
use relock_tensor::Tensor;
use std::collections::HashSet;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"RLCKGRPH";
const VERSION: u32 = 1;

/// The part of a model file being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The magic, the version and the counts before the first node.
    Header,
    /// Node `i`'s tag, scalars and wiring.
    Node(usize),
    /// A tensor of node `i`.
    Tensor(usize),
    /// The key bits after the graph.
    Key,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Section::Header => write!(f, "the header"),
            Section::Node(i) => write!(f, "node {i}"),
            Section::Tensor(i) => write!(f, "a tensor of node {i}"),
            Section::Key => write!(f, "the key"),
        }
    }
}

/// Errors raised while reading a serialized graph.
#[derive(Debug)]
pub enum SerialError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input ended inside `section`, after `offset` bytes: a file cut
    /// short, or a count larger than what follows it.
    Truncated {
        /// What was being read.
        section: Section,
        /// Bytes read before the input ended.
        offset: u64,
    },
    /// Bad magic bytes — not a relock graph file.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Malformed payload (message explains).
    Corrupt(String),
    /// The decoded node list fails graph validation.
    Graph(GraphError),
}

impl fmt::Display for SerialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerialError::Io(e) => write!(f, "i/o failure: {e}"),
            SerialError::Truncated { section, offset } => {
                write!(f, "file ends at byte {offset}, inside {section}")
            }
            SerialError::BadMagic => write!(f, "not a relock graph file (bad magic)"),
            SerialError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            SerialError::Corrupt(msg) => write!(f, "corrupt graph file: {msg}"),
            SerialError::Graph(e) => write!(f, "decoded graph is invalid: {e}"),
        }
    }
}

impl std::error::Error for SerialError {}

impl From<io::Error> for SerialError {
    fn from(e: io::Error) -> Self {
        SerialError::Io(e)
    }
}

/// A reader that counts the bytes it delivers and tracks the [`Section`]
/// being read, so that input ending early is reported with both (see
/// [`SectionReader::explain`]).
#[derive(Debug)]
pub struct SectionReader<R> {
    inner: R,
    offset: u64,
    section: Section,
}

impl<R: Read> SectionReader<R> {
    /// Reads from `inner`, counting from zero, in [`Section::Header`].
    pub fn new(inner: R) -> Self {
        SectionReader {
            inner,
            offset: 0,
            section: Section::Header,
        }
    }

    /// Marks the start of `section`.
    pub fn enter(&mut self, section: Section) {
        self.section = section;
    }

    /// `e`, or [`SerialError::Truncated`] in the current section when `e`
    /// is the input ending early.
    pub fn explain(&self, e: SerialError) -> SerialError {
        match e {
            SerialError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof => {
                SerialError::Truncated {
                    section: self.section,
                    offset: self.offset,
                }
            }
            e => e,
        }
    }
}

impl<R: Read> Read for SectionReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.offset += n as u64;
        Ok(n)
    }
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> Result<u64, SerialError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_usize(r: &mut impl Read) -> Result<usize, SerialError> {
    usize::try_from(read_u64(r)?).map_err(|_| SerialError::Corrupt("usize overflow".into()))
}

/// An empty vector for `n` items about to be decoded from untrusted bytes.
/// It reserves at most 2^20 of them up front, so a forged count costs
/// memory only for the items actually present; reading them must then
/// fail at the end of the input.
pub fn bounded_vec<T>(n: usize) -> Vec<T> {
    Vec::with_capacity(n.min(1 << 20))
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_f64(r: &mut impl Read) -> Result<f64, SerialError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

fn write_tensor(w: &mut impl Write, t: &Tensor) -> io::Result<()> {
    write_u64(w, t.rank() as u64)?;
    for &d in t.dims() {
        write_u64(w, d as u64)?;
    }
    for &v in t.as_slice() {
        write_f64(w, v)?;
    }
    Ok(())
}

fn read_tensor<R: Read>(r: &mut SectionReader<R>) -> Result<Tensor, SerialError> {
    let within = r.section;
    if let Section::Node(i) = within {
        r.enter(Section::Tensor(i));
    }
    let rank = read_usize(r)?;
    if rank > 8 {
        return Err(SerialError::Corrupt(format!(
            "tensor rank {rank} too large"
        )));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(read_usize(r)?);
    }
    let numel = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| SerialError::Corrupt(format!("tensor dims {dims:?} overflow")))?;
    if numel > (1 << 30) {
        return Err(SerialError::Corrupt("tensor too large".into()));
    }
    let mut data = bounded_vec(numel);
    for _ in 0..numel {
        data.push(read_f64(r)?);
    }
    r.enter(within);
    Ok(Tensor::from_vec(data, dims))
}

fn write_geom(w: &mut impl Write, g: &ConvGeometry) -> io::Result<()> {
    for v in [g.in_channels, g.in_h, g.in_w, g.k_h, g.k_w, g.stride, g.pad] {
        write_u64(w, v as u64)?;
    }
    Ok(())
}

fn read_geom(r: &mut impl Read) -> Result<ConvGeometry, SerialError> {
    Ok(ConvGeometry {
        in_channels: read_usize(r)?,
        in_h: read_usize(r)?,
        in_w: read_usize(r)?,
        k_h: read_usize(r)?,
        k_w: read_usize(r)?,
        stride: read_usize(r)?,
        pad: read_usize(r)?,
    })
}

fn write_layout(w: &mut impl Write, l: &UnitLayout) -> io::Result<()> {
    for v in [l.n_units, l.unit_len, l.unit_stride, l.elem_stride] {
        write_u64(w, v as u64)?;
    }
    Ok(())
}

fn read_layout(r: &mut impl Read) -> Result<UnitLayout, SerialError> {
    Ok(UnitLayout {
        n_units: read_usize(r)?,
        unit_len: read_usize(r)?,
        unit_stride: read_usize(r)?,
        elem_stride: read_usize(r)?,
    })
}

fn write_slots(w: &mut impl Write, slots: &[Option<KeySlot>]) -> io::Result<()> {
    write_u64(w, slots.len() as u64)?;
    for s in slots {
        match s {
            Some(s) => {
                w.write_all(&[1])?;
                write_u64(w, s.index() as u64)?;
            }
            None => w.write_all(&[0])?,
        }
    }
    Ok(())
}

fn read_slots(r: &mut impl Read) -> Result<Vec<Option<KeySlot>>, SerialError> {
    let n = read_usize(r)?;
    if n > (1 << 24) {
        return Err(SerialError::Corrupt("slot list too large".into()));
    }
    let mut out = bounded_vec(n);
    for _ in 0..n {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        out.push(match tag[0] {
            0 => None,
            1 => Some(KeySlot(read_usize(r)?)),
            t => return Err(SerialError::Corrupt(format!("bad slot tag {t}"))),
        });
    }
    Ok(out)
}

fn write_op(w: &mut impl Write, op: &Op) -> io::Result<()> {
    match op {
        Op::Input { size } => {
            w.write_all(&[0])?;
            write_u64(w, *size as u64)?;
        }
        Op::Linear {
            w: wt,
            b,
            weight_locks,
        } => {
            w.write_all(&[1])?;
            write_tensor(w, wt)?;
            write_tensor(w, b)?;
            write_u64(w, weight_locks.len() as u64)?;
            for l in weight_locks {
                write_u64(w, l.row as u64)?;
                write_u64(w, l.col as u64)?;
                write_u64(w, l.slot.index() as u64)?;
            }
        }
        Op::Conv2d { w: wt, b, geom } => {
            w.write_all(&[2])?;
            write_tensor(w, wt)?;
            write_tensor(w, b)?;
            write_geom(w, geom)?;
        }
        Op::Relu => w.write_all(&[3])?,
        Op::KeyedSign { layout, slots } => {
            w.write_all(&[4])?;
            write_layout(w, layout)?;
            write_slots(w, slots)?;
        }
        Op::KeyedScale {
            layout,
            slots,
            factor,
        } => {
            w.write_all(&[5])?;
            write_layout(w, layout)?;
            write_slots(w, slots)?;
            write_f64(w, *factor)?;
        }
        Op::Add => w.write_all(&[6])?,
        Op::MaxPool2d {
            channels,
            in_h,
            in_w,
            k,
            stride,
        } => {
            w.write_all(&[7])?;
            for v in [channels, in_h, in_w, k, stride] {
                write_u64(w, *v as u64)?;
            }
        }
        Op::AvgPoolGlobal {
            channels,
            positions,
        } => {
            w.write_all(&[8])?;
            write_u64(w, *channels as u64)?;
            write_u64(w, *positions as u64)?;
        }
        Op::TokenTranspose { rows, cols } => {
            w.write_all(&[9])?;
            write_u64(w, *rows as u64)?;
            write_u64(w, *cols as u64)?;
        }
        Op::TokenLinear { tokens, w: wt, b } => {
            w.write_all(&[10])?;
            write_u64(w, *tokens as u64)?;
            write_tensor(w, wt)?;
            write_tensor(w, b)?;
        }
        Op::LayerNorm {
            tokens,
            dim,
            gamma,
            beta,
        } => {
            w.write_all(&[11])?;
            write_u64(w, *tokens as u64)?;
            write_u64(w, *dim as u64)?;
            write_tensor(w, gamma)?;
            write_tensor(w, beta)?;
        }
        Op::Attention {
            tokens,
            heads,
            head_dim,
        } => {
            w.write_all(&[12])?;
            for v in [tokens, heads, head_dim] {
                write_u64(w, *v as u64)?;
            }
        }
        Op::MeanTokens { tokens, dim } => {
            w.write_all(&[13])?;
            write_u64(w, *tokens as u64)?;
            write_u64(w, *dim as u64)?;
        }
        Op::KeyedTrigger {
            trigger_dims,
            slots,
            kind,
        } => {
            w.write_all(&[14])?;
            write_u64(w, trigger_dims.len() as u64)?;
            for d in trigger_dims {
                write_u64(w, *d as u64)?;
            }
            write_u64(w, slots.len() as u64)?;
            for s in slots {
                write_u64(w, s.index() as u64)?;
            }
            match kind {
                TriggerKind::Sar { mask } => {
                    w.write_all(&[0])?;
                    write_u64(w, mask.len() as u64)?;
                    for &b in mask {
                        w.write_all(&[u8::from(b)])?;
                    }
                }
                TriggerKind::AntiSat => w.write_all(&[1])?,
            }
        }
    }
    Ok(())
}

fn read_op<R: Read>(r: &mut SectionReader<R>) -> Result<Op, SerialError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => Op::Input {
            size: read_usize(r)?,
        },
        1 => {
            let w = read_tensor(r)?;
            let b = read_tensor(r)?;
            let n = read_usize(r)?;
            if n > (1 << 24) {
                return Err(SerialError::Corrupt("weight-lock list too large".into()));
            }
            let mut weight_locks = bounded_vec(n);
            for _ in 0..n {
                weight_locks.push(WeightLock {
                    row: read_usize(r)?,
                    col: read_usize(r)?,
                    slot: KeySlot(read_usize(r)?),
                });
            }
            Op::Linear { w, b, weight_locks }
        }
        2 => Op::Conv2d {
            w: read_tensor(r)?,
            b: read_tensor(r)?,
            geom: read_geom(r)?,
        },
        3 => Op::Relu,
        4 => Op::KeyedSign {
            layout: read_layout(r)?,
            slots: read_slots(r)?,
        },
        5 => Op::KeyedScale {
            layout: read_layout(r)?,
            slots: read_slots(r)?,
            factor: read_f64(r)?,
        },
        6 => Op::Add,
        7 => Op::MaxPool2d {
            channels: read_usize(r)?,
            in_h: read_usize(r)?,
            in_w: read_usize(r)?,
            k: read_usize(r)?,
            stride: read_usize(r)?,
        },
        8 => Op::AvgPoolGlobal {
            channels: read_usize(r)?,
            positions: read_usize(r)?,
        },
        9 => Op::TokenTranspose {
            rows: read_usize(r)?,
            cols: read_usize(r)?,
        },
        10 => Op::TokenLinear {
            tokens: read_usize(r)?,
            w: read_tensor(r)?,
            b: read_tensor(r)?,
        },
        11 => Op::LayerNorm {
            tokens: read_usize(r)?,
            dim: read_usize(r)?,
            gamma: read_tensor(r)?,
            beta: read_tensor(r)?,
        },
        12 => Op::Attention {
            tokens: read_usize(r)?,
            heads: read_usize(r)?,
            head_dim: read_usize(r)?,
        },
        13 => Op::MeanTokens {
            tokens: read_usize(r)?,
            dim: read_usize(r)?,
        },
        14 => {
            let nd = read_usize(r)?;
            if nd > (1 << 24) {
                return Err(SerialError::Corrupt("trigger dim list too large".into()));
            }
            let mut trigger_dims = bounded_vec(nd);
            for _ in 0..nd {
                trigger_dims.push(read_usize(r)?);
            }
            let ns = read_usize(r)?;
            if ns > (1 << 24) {
                return Err(SerialError::Corrupt("trigger slot list too large".into()));
            }
            let mut slots = bounded_vec(ns);
            for _ in 0..ns {
                slots.push(KeySlot(read_usize(r)?));
            }
            let mut kt = [0u8; 1];
            r.read_exact(&mut kt)?;
            let kind = match kt[0] {
                0 => {
                    let nm = read_usize(r)?;
                    if nm > (1 << 24) {
                        return Err(SerialError::Corrupt("trigger mask too large".into()));
                    }
                    let mut mask = bounded_vec(nm);
                    for _ in 0..nm {
                        let mut b = [0u8; 1];
                        r.read_exact(&mut b)?;
                        mask.push(match b[0] {
                            0 => false,
                            1 => true,
                            t => return Err(SerialError::Corrupt(format!("bad mask bit {t}"))),
                        });
                    }
                    TriggerKind::Sar { mask }
                }
                1 => TriggerKind::AntiSat,
                t => return Err(SerialError::Corrupt(format!("bad trigger kind {t}"))),
            };
            Op::KeyedTrigger {
                trigger_dims,
                slots,
                kind,
            }
        }
        t => return Err(SerialError::Corrupt(format!("unknown op tag {t}"))),
    })
}

impl Graph {
    /// Serializes the graph (architecture + all parameters, no key) into a
    /// writer. Pass `&mut` of anything `Write`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        write_u64(w, self.nodes.len() as u64)?;
        write_u64(w, self.input.index() as u64)?;
        write_u64(w, self.output.index() as u64)?;
        write_u64(w, self.key_slots as u64)?;
        for node in &self.nodes {
            write_op(w, &node.op)?;
            write_u64(w, node.inputs.len() as u64)?;
            for i in &node.inputs {
                write_u64(w, i.index() as u64)?;
            }
        }
        Ok(())
    }

    /// Deserializes a graph previously written by [`Graph::save`],
    /// re-validating every node's wiring and sizes and every key slot
    /// (in range of the header's count, used once).
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on I/O failures, malformed bytes, or a
    /// payload that decodes to an invalid graph. Input that ends early is
    /// [`SerialError::Truncated`], with its offset counted from where the
    /// load began.
    pub fn load(r: &mut impl Read) -> Result<Graph, SerialError> {
        let mut r = SectionReader::new(r);
        Graph::load_sections(&mut r).map_err(|e| r.explain(e))
    }

    fn load_sections<R: Read>(r: &mut SectionReader<R>) -> Result<Graph, SerialError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(SerialError::BadMagic);
        }
        let mut vbuf = [0u8; 4];
        r.read_exact(&mut vbuf)?;
        let version = u32::from_le_bytes(vbuf);
        if version != VERSION {
            return Err(SerialError::BadVersion(version));
        }
        let n = read_usize(r)?;
        if n > (1 << 20) {
            return Err(SerialError::Corrupt("node count too large".into()));
        }
        let input = NodeId(read_usize(r)?);
        let output = NodeId(read_usize(r)?);
        let key_slots = read_usize(r)?;
        let mut nodes: Vec<Node> = bounded_vec(n);
        for idx in 0..n {
            r.enter(Section::Node(idx));
            let op = read_op(r)?;
            let n_inputs = read_usize(r)?;
            if n_inputs != op.arity() {
                return Err(SerialError::Corrupt(format!(
                    "node {idx}: {} inputs for {}",
                    n_inputs,
                    op.kind()
                )));
            }
            let mut inputs = Vec::with_capacity(n_inputs);
            let mut sizes = Vec::with_capacity(n_inputs);
            for _ in 0..n_inputs {
                let i = read_usize(r)?;
                if i >= idx {
                    return Err(SerialError::Corrupt(format!(
                        "node {idx} consumes later node {i}"
                    )));
                }
                inputs.push(NodeId(i));
                sizes.push(nodes[i].out_size);
            }
            let out_size = op
                .infer_out_size(&sizes)
                .map_err(|m| SerialError::Graph(GraphError::BadOp(m)))?;
            nodes.push(Node {
                op,
                inputs,
                out_size,
            });
        }
        // The key slots `GraphBuilder::add` would have accepted: each
        // inside the header's count, none used twice. A key assignment
        // indexes by slot unchecked.
        let mut used = HashSet::new();
        for slot in nodes.iter().flat_map(|node| node.op.key_slots()) {
            if slot.index() >= key_slots {
                return Err(SerialError::Corrupt(format!(
                    "key slot {slot} out of range for {key_slots} key slots"
                )));
            }
            if !used.insert(slot) {
                return Err(SerialError::Graph(GraphError::DuplicateKeySlot(slot)));
            }
        }
        if input.index() >= n || output.index() >= n {
            return Err(SerialError::Corrupt("input/output id out of range".into()));
        }
        Ok(Graph {
            nodes,
            input,
            output,
            key_slots,
            weights_gen: crate::key::next_generation(),
            plan: std::sync::OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::key::KeyAssignment;
    use relock_tensor::rng::Prng;

    fn toy() -> Graph {
        let mut rng = Prng::seed_from_u64(400);
        let mut gb = GraphBuilder::new();
        let x = gb.input(4);
        let lin = gb
            .add(
                Op::Linear {
                    w: rng.normal_tensor([3, 4]),
                    b: rng.normal_tensor([3]),
                    weight_locks: vec![WeightLock {
                        row: 1,
                        col: 2,
                        slot: KeySlot(1),
                    }],
                },
                &[x],
            )
            .unwrap();
        let keyed = gb
            .add(
                Op::KeyedSign {
                    layout: UnitLayout::scalar(3),
                    slots: vec![Some(KeySlot(0)), None, None],
                },
                &[lin],
            )
            .unwrap();
        let relu = gb.add(Op::Relu, &[keyed]).unwrap();
        gb.build(relu).unwrap()
    }

    #[test]
    fn round_trip_preserves_function() {
        let g = toy();
        let mut buf = Vec::new();
        g.save(&mut buf).unwrap();
        let g2 = Graph::load(&mut buf.as_slice()).unwrap();
        assert_eq!(g2.key_slot_count(), g.key_slot_count());
        let keys = KeyAssignment::from_bits(&[true, false]);
        let mut rng = Prng::seed_from_u64(401);
        for _ in 0..5 {
            let x = rng.normal_tensor([4]);
            assert_eq!(
                g.logits(&x, &keys).as_slice(),
                g2.logits(&x, &keys).as_slice()
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Graph::load(&mut &b"NOTAGRPHized"[..]);
        assert!(matches!(err, Err(SerialError::BadMagic)));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let g = toy();
        let mut buf = Vec::new();
        g.save(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Graph::load(&mut buf.as_slice()).is_err());
    }

    /// `toy()` saved with its keyed sign's slot 0 rewritten to `slot`. The
    /// index sits ahead of the two `None` tags (2 bytes), the keyed
    /// node's input list (16) and the ReLU node (17).
    fn toy_with_sign_slot(slot: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        toy().save(&mut buf).unwrap();
        let at = buf.len() - 17 - 16 - 2 - 8;
        assert_eq!(buf[at - 1], 1, "the slot's Some tag");
        assert_eq!(buf[at..at + 8], 0u64.to_le_bytes());
        buf[at..at + 8].copy_from_slice(&slot.to_le_bytes());
        buf
    }

    #[test]
    fn out_of_range_key_slot_is_rejected() {
        let buf = toy_with_sign_slot(2);
        assert!(matches!(
            Graph::load(&mut buf.as_slice()),
            Err(SerialError::Corrupt(msg)) if msg == "key slot k2 out of range for 2 key slots"
        ));
    }

    #[test]
    fn reused_key_slot_is_rejected() {
        // Slot 1 already locks the linear layer's weight.
        let buf = toy_with_sign_slot(1);
        assert!(matches!(
            Graph::load(&mut buf.as_slice()),
            Err(SerialError::Graph(GraphError::DuplicateKeySlot(KeySlot(1))))
        ));
    }

    /// A saved one-conv graph: a 1×4×4 input through a 3×3, stride-1,
    /// pad-1 convolution with two output channels.
    fn one_conv() -> Vec<u8> {
        let geom = ConvGeometry {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let mut rng = Prng::seed_from_u64(402);
        let mut gb = GraphBuilder::new();
        let x = gb.input(16);
        let conv = gb
            .add(
                Op::Conv2d {
                    w: rng.normal_tensor([2, geom.patch_len()]),
                    b: rng.normal_tensor([2]),
                    geom,
                },
                &[x],
            )
            .unwrap();
        let mut buf = Vec::new();
        gb.build(conv).unwrap().save(&mut buf).unwrap();
        buf
    }

    /// Offset of geometry field `field` (0 = `in_channels` … 6 = `pad`) in
    /// `one_conv()`'s bytes. The conv node is last: its seven geometry
    /// fields sit just ahead of its input list (count and one id, 16).
    fn geom_field_at(buf: &[u8], field: usize) -> usize {
        buf.len() - 16 - 7 * 8 + 8 * field
    }

    #[test]
    fn degenerate_conv_geometry_is_rejected() {
        assert!(Graph::load(&mut one_conv().as_slice()).is_ok());
        // Stride 0, an empty kernel, and a kernel larger than the padded
        // input: each used to panic in the geometry asserts.
        for (field, value, why) in [
            (5, 0u64, "stride must be >= 1"),
            (3, 0, "kernel must be non-empty"),
            (3, 1000, "kernel 1000x3 larger than padded input 6x6"),
        ] {
            let mut buf = one_conv();
            let at = geom_field_at(&buf, field);
            buf[at..at + 8].copy_from_slice(&value.to_le_bytes());
            match Graph::load(&mut buf.as_slice()) {
                Err(SerialError::Graph(GraphError::BadOp(msg))) => {
                    assert_eq!(msg, format!("conv geometry: {why}"))
                }
                Err(e) => panic!("geometry field {field} = {value}: {e}"),
                Ok(_) => panic!("geometry field {field} = {value} was accepted"),
            }
        }
    }

    #[test]
    fn overflowing_tensor_dims_are_rejected() {
        let mut buf = one_conv();
        // The conv weight `(2, 9)` is the node's first payload: rank 2 and
        // its two dims ahead of 18 values, then the bias (rank, dim, two
        // values) and the geometry.
        let data_and_bias = 18 * 8 + 8 + 8 + 2 * 8;
        let dims_at = geom_field_at(&buf, 0) - data_and_bias - 16;
        assert_eq!(buf[dims_at - 8..dims_at], 2u64.to_le_bytes(), "the rank");
        assert_eq!(buf[dims_at..dims_at + 8], 2u64.to_le_bytes(), "dim 0");
        for at in [dims_at, dims_at + 8] {
            buf[at..at + 8].copy_from_slice(&(1u64 << 33).to_le_bytes());
        }
        assert!(matches!(
            Graph::load(&mut buf.as_slice()),
            Err(SerialError::Corrupt(msg)) if msg.contains("overflow")
        ));
    }

    #[test]
    fn forward_reference_is_rejected() {
        let g = toy();
        let mut buf = Vec::new();
        g.save(&mut buf).unwrap();
        // The last node's single input id sits 8 bytes from the end;
        // point it at itself.
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&(2u64 + 1).to_le_bytes());
        assert!(matches!(
            Graph::load(&mut buf.as_slice()),
            Err(SerialError::Corrupt(_))
        ));
    }
}
