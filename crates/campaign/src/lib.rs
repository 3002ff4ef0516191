//! # relock-campaign — the attack-campaign service
//!
//! Everything below this crate runs *one* attack to completion inside one
//! process. This crate turns the stack into a resident service: a daemon
//! (`relock serve`) hosts many concurrent **campaigns** — long-running
//! key-recovery attacks, each against its own locked model, each with its
//! own budget and fault policy — on top of shared infrastructure:
//!
//! - a **process-global query cache**: every campaign's broker fronts the
//!   same byte-capped [`relock_serve::SharedCache`], namespaced by a
//!   content hash of the campaign's model so identical probe rows against
//!   the same victim hit across campaigns while different victims can
//!   never collide;
//! - **fair-share admission** ([`FairScheduler`]): tenants get run slots
//!   in proportion to their weight via stride scheduling, so one noisy
//!   tenant cannot starve the rest. A slot bounds compute: a campaign
//!   gives it back while a query waits ([`SlotLease`]);
//! - a **campaign lifecycle** ([`CampaignHub`]): submit / status / pause /
//!   resume / cancel. Pause rides the checkpoint layer — a paused campaign
//!   *is* an RLCP v2 frame, so it can be carried across a daemon restart
//!   and resumed bit-identically on the other side;
//! - a **wire protocol** ([`proto`]): newline-delimited length-prefixed
//!   JSON frames over TCP or a Unix socket, spoken by [`serve_forever`]
//!   and [`Client`]. See `DESIGN.md` §4 for the frame and request
//!   catalogue.
//!
//! The module split mirrors those four concerns: [`sched`], [`hub`],
//! [`proto`], [`server`] / [`client`].

mod client;
mod hub;
mod proto;
mod sched;
mod server;

pub use client::Client;
pub use hub::{CampaignConfig, CampaignHub, CampaignState, CampaignView, HubCacheStats, HubError};
pub use proto::{read_frame, write_frame, ProtoError, Request, MAX_FRAME_BYTES};
pub use sched::{FairScheduler, SlotLease};
pub use server::{serve_forever, Listener, ServerConfig, ServerHandle};
