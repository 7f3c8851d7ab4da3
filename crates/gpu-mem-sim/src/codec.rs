//! Plain-text serialization of context traces.
//!
//! A small line-oriented format so traces can be generated once (or captured
//! from the secure runtime), stored, inspected with ordinary text tools and
//! replayed under any design via the CLI:
//!
//! ```text
//! SHMTRACE v1
//! name fdtd2d
//! ro 1f400 80000
//! kernel fdtd2d-k0
//! action reset 1f400 80000
//! e 1f400 r g 12 3
//! end
//! ```
//!
//! Event lines are `e <hex addr> <r|w> <space> <warp> <think>` with the
//! space encoded as one character (`g`lobal, `l`ocal, `c`onstant,
//! `t`exture, `i`nstruction).

use std::io::{self, BufRead, Write};

use gpu_types::{AccessKind, MemEvent, MemorySpace, PhysAddr, Warp};

use crate::trace::{ContextTrace, HostAction, KernelTrace};

/// Errors produced while decoding a trace file.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file, with the offending line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

fn space_char(s: MemorySpace) -> char {
    match s {
        MemorySpace::Global => 'g',
        MemorySpace::Local => 'l',
        MemorySpace::Constant => 'c',
        MemorySpace::Texture => 't',
        MemorySpace::Instruction => 'i',
    }
}

fn space_of(c: &str, line: usize) -> Result<MemorySpace, CodecError> {
    Ok(match c {
        "g" => MemorySpace::Global,
        "l" => MemorySpace::Local,
        "c" => MemorySpace::Constant,
        "t" => MemorySpace::Texture,
        "i" => MemorySpace::Instruction,
        other => {
            return Err(CodecError::Parse {
                line,
                message: format!("unknown memory space {other:?}"),
            })
        }
    })
}

/// Writes `trace` in the `SHMTRACE v1` format.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_trace<W: Write>(trace: &ContextTrace, w: &mut W) -> Result<(), CodecError> {
    writeln!(w, "SHMTRACE v1")?;
    writeln!(w, "name {}", trace.name)?;
    for (start, len) in &trace.readonly_init {
        writeln!(w, "ro {:x} {:x}", start.raw(), len)?;
    }
    for kernel in &trace.kernels {
        writeln!(w, "kernel {}", kernel.name)?;
        for action in &kernel.pre_actions {
            match action {
                HostAction::MemcpyToDevice { start, len } => {
                    writeln!(w, "action memcpy {:x} {:x}", start.raw(), len)?
                }
                HostAction::InputReadOnlyReset { start, len } => {
                    writeln!(w, "action reset {:x} {:x}", start.raw(), len)?
                }
            }
        }
        for e in &kernel.events {
            writeln!(
                w,
                "e {:x} {} {} {:x} {:x}",
                e.addr.raw(),
                if e.kind.is_write() { 'w' } else { 'r' },
                space_char(e.space),
                e.warp.0,
                e.think_cycles
            )?;
        }
        writeln!(w, "end")?;
    }
    Ok(())
}

/// Reads a `SHMTRACE v1` stream back into a [`ContextTrace`].
///
/// # Errors
///
/// I/O failures and structural errors with line numbers.
pub fn read_trace<R: BufRead>(r: R) -> Result<ContextTrace, CodecError> {
    let mut trace = ContextTrace::default();
    // The open kernel and the line of its `kernel` tag.
    let mut current: Option<(usize, KernelTrace)> = None;
    let mut saw_header = false;

    for (idx, line) in r.lines().enumerate() {
        let n = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty line has a token");

        let parse_hex = |s: Option<&str>, what: &str| -> Result<u64, CodecError> {
            let s = s.ok_or_else(|| CodecError::Parse {
                line: n,
                message: format!("missing {what}"),
            })?;
            u64::from_str_radix(s, 16).map_err(|e| CodecError::Parse {
                line: n,
                message: format!("bad {what} {s:?}: {e}"),
            })
        };
        let parse_u32 = |s: Option<&str>, what: &str| -> Result<u32, CodecError> {
            let v = parse_hex(s, what)?;
            u32::try_from(v).map_err(|_| CodecError::Parse {
                line: n,
                message: format!("{what} {v:x} does not fit in 32 bits"),
            })
        };

        match tag {
            "SHMTRACE" => {
                let version = parts.next().unwrap_or("");
                if version != "v1" {
                    return Err(CodecError::Parse {
                        line: n,
                        message: format!("unsupported version {version:?}"),
                    });
                }
                saw_header = true;
            }
            _ if !saw_header => {
                return Err(CodecError::Parse {
                    line: n,
                    message: "missing SHMTRACE header".to_string(),
                })
            }
            "name" => trace.name = parts.collect::<Vec<_>>().join(" "),
            "ro" => {
                let start = parse_hex(parts.next(), "ro start")?;
                let len = parse_hex(parts.next(), "ro length")?;
                trace.readonly_init.push((PhysAddr::new(start), len));
            }
            "kernel" => {
                if let Some((_, k)) = current.take() {
                    return Err(CodecError::Parse {
                        line: n,
                        message: format!("kernel {:?} not terminated with `end`", k.name),
                    });
                }
                current = Some((
                    n,
                    KernelTrace::new(parts.collect::<Vec<_>>().join(" "), Vec::new()),
                ));
            }
            "action" => {
                let (_, k) = current.as_mut().ok_or_else(|| CodecError::Parse {
                    line: n,
                    message: "action outside a kernel".to_string(),
                })?;
                let what = parts.next().unwrap_or("");
                let start = PhysAddr::new(parse_hex(parts.next(), "action start")?);
                let len = parse_hex(parts.next(), "action length")?;
                k.pre_actions.push(match what {
                    "memcpy" => HostAction::MemcpyToDevice { start, len },
                    "reset" => HostAction::InputReadOnlyReset { start, len },
                    other => {
                        return Err(CodecError::Parse {
                            line: n,
                            message: format!("unknown action {other:?}"),
                        })
                    }
                });
            }
            "e" => {
                let (_, k) = current.as_mut().ok_or_else(|| CodecError::Parse {
                    line: n,
                    message: "event outside a kernel".to_string(),
                })?;
                let addr = parse_hex(parts.next(), "address")?;
                let kind = match parts.next() {
                    Some("r") => AccessKind::Read,
                    Some("w") => AccessKind::Write,
                    other => {
                        return Err(CodecError::Parse {
                            line: n,
                            message: format!("bad access kind {other:?}"),
                        })
                    }
                };
                let space = space_of(parts.next().unwrap_or(""), n)?;
                let warp = parse_u32(parts.next(), "warp")?;
                let think = parse_u32(parts.next(), "think cycles")?;
                k.events.push(MemEvent {
                    addr: PhysAddr::new(addr),
                    kind,
                    space,
                    warp: Warp(warp),
                    think_cycles: think,
                });
            }
            "end" => {
                let (_, k) = current.take().ok_or_else(|| CodecError::Parse {
                    line: n,
                    message: "`end` outside a kernel".to_string(),
                })?;
                trace.kernels.push(k);
            }
            other => {
                return Err(CodecError::Parse {
                    line: n,
                    message: format!("unknown tag {other:?}"),
                })
            }
        }
    }
    if let Some((line, k)) = current {
        return Err(CodecError::Parse {
            line,
            message: format!("kernel {:?} not terminated with `end`", k.name),
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ContextTrace;

    fn roundtrip(t: &ContextTrace) -> ContextTrace {
        let mut buf = Vec::new();
        write_trace(t, &mut buf).expect("write");
        read_trace(buf.as_slice()).expect("read")
    }

    #[test]
    fn demo_trace_roundtrips() {
        let t = ContextTrace::streaming_read_demo(500);
        let back = roundtrip(&t);
        assert_eq!(back.name, t.name);
        assert_eq!(back.readonly_init, t.readonly_init);
        assert_eq!(back.kernels.len(), t.kernels.len());
        assert_eq!(back.kernels[0].events, t.kernels[0].events);
    }

    #[test]
    fn actions_and_spaces_roundtrip() {
        let mut t = ContextTrace::new("mixed trace name");
        let mut k = KernelTrace::new("k with spaces", Vec::new());
        k.pre_actions = vec![
            HostAction::MemcpyToDevice {
                start: PhysAddr::new(0x1000),
                len: 0x2000,
            },
            HostAction::InputReadOnlyReset {
                start: PhysAddr::new(0x1000),
                len: 0x2000,
            },
        ];
        for (i, space) in [
            MemorySpace::Global,
            MemorySpace::Local,
            MemorySpace::Constant,
            MemorySpace::Texture,
            MemorySpace::Instruction,
        ]
        .into_iter()
        .enumerate()
        {
            k.events.push(MemEvent {
                addr: PhysAddr::new(i as u64 * 32),
                kind: if i % 2 == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                space,
                warp: Warp(i as u32),
                think_cycles: i as u32,
            });
        }
        t.kernels.push(k);
        let back = roundtrip(&t);
        assert_eq!(back.kernels[0].pre_actions, t.kernels[0].pre_actions);
        assert_eq!(back.kernels[0].events, t.kernels[0].events);
        assert_eq!(back.kernels[0].name, "k with spaces");
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = read_trace("name x\n".as_bytes()).expect_err("no header");
        assert!(matches!(err, CodecError::Parse { line: 1, .. }));
    }

    #[test]
    fn unterminated_kernel_is_an_error() {
        let err = read_trace("SHMTRACE v1\nkernel k\n".as_bytes()).expect_err("no end");
        assert!(err.to_string().contains("not terminated"));
    }

    #[test]
    fn unterminated_kernel_reports_its_kernel_line() {
        let src = "SHMTRACE v1\nname x\n\nkernel k\ne 20 r g 1 0\n";
        let err = read_trace(src.as_bytes()).expect_err("no end");
        assert!(matches!(err, CodecError::Parse { line: 4, .. }), "{err}");
    }

    #[test]
    fn out_of_range_warp_and_think_are_rejected_not_truncated() {
        for event in ["e 20 r g 100000003 0", "e 20 r g 3 100000000"] {
            let src = format!("SHMTRACE v1\nkernel k\n{event}\nend\n");
            let err = read_trace(src.as_bytes()).expect_err(event);
            assert!(matches!(err, CodecError::Parse { line: 3, .. }), "{err}");
        }
        let max = "SHMTRACE v1\nkernel k\ne 20 r g ffffffff ffffffff\nend\n";
        let t = read_trace(max.as_bytes()).expect("u32::MAX fits");
        assert_eq!(t.kernels[0].events[0].warp, Warp(u32::MAX));
        assert_eq!(t.kernels[0].events[0].think_cycles, u32::MAX);
    }

    #[test]
    fn bad_event_reports_line_number() {
        let err = read_trace("SHMTRACE v1\nkernel k\ne zz r g 0 0\nend\n".as_bytes())
            .expect_err("bad hex");
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_roundtrip(
                addrs in proptest::collection::vec((0u64..1 << 32, any::<bool>(), 0u8..5, 0u32..64, 0u32..32), 1..200),
                name in "[a-zA-Z0-9 _-]{1,24}",
            ) {
                let spaces = [
                    MemorySpace::Global,
                    MemorySpace::Local,
                    MemorySpace::Constant,
                    MemorySpace::Texture,
                    MemorySpace::Instruction,
                ];
                let mut t = ContextTrace::new(name.trim().to_string());
                let events = addrs
                    .into_iter()
                    .map(|(a, w, sp, warp, think)| MemEvent {
                        addr: PhysAddr::new(a & !31),
                        kind: if w { AccessKind::Write } else { AccessKind::Read },
                        space: spaces[sp as usize],
                        warp: Warp(warp),
                        think_cycles: think,
                    })
                    .collect();
                t.kernels.push(KernelTrace::new("k", events));
                let mut buf = Vec::new();
                write_trace(&t, &mut buf).expect("write");
                let back = read_trace(buf.as_slice()).expect("read");
                prop_assert_eq!(back.kernels[0].events.clone(), t.kernels[0].events.clone());
                // Names pass through whitespace-normalized (line format).
                let norm = |n: &str| n.split_whitespace().collect::<Vec<_>>().join(" ");
                prop_assert_eq!(norm(&back.name), norm(&t.name));
            }

            /// `read_trace` on arbitrary bytes, and on a valid trace cut
            /// anywhere with random bytes or trace-like tokens spliced in,
            /// returns `Ok` or `Err` and never panics.
            #[test]
            fn read_trace_never_panics(
                noise in proptest::collection::vec(any::<u8>(), 0..64),
                tokens in proptest::collection::vec(0usize..12, 0..12),
                cut in 0usize..4096,
            ) {
                const TOKENS: [&str; 12] = [
                    "SHMTRACE v1\n", "kernel k\n", "end\n", "e 20 r g ", "ffffffffffffffffff",
                    " w", " 100000003", "\n", "action memcpy ", "ro ", "# ", " t 1 0",
                ];
                let _ = read_trace(noise.as_slice());
                let mut valid = Vec::new();
                write_trace(&ContextTrace::streaming_read_demo(40), &mut valid).expect("write");
                let cut = cut.min(valid.len());
                for splice in [noise, tokens.iter().flat_map(|&i| TOKENS[i].bytes()).collect()] {
                    let mut doc = valid.clone();
                    doc.splice(cut..cut, splice);
                    let _ = read_trace(doc.as_slice());
                    doc.truncate(cut);
                    let _ = read_trace(doc.as_slice());
                }
            }
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let src = "SHMTRACE v1\n# comment\n\nname x\nkernel k\ne 20 r g 1 0\nend\n";
        let t = read_trace(src.as_bytes()).expect("parse");
        assert_eq!(t.name, "x");
        assert_eq!(t.kernels[0].events.len(), 1);
    }
}
