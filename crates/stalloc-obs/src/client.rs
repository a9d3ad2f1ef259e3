//! Client-side request spans: the half of a request the server never
//! sees — connect, encode, socket writes, the await for the response,
//! reads, decode, and the soundness check of a received plan.
//!
//! [`ClientSpan`] is [`crate::RequestSpan`]'s sibling: the same
//! [`Span`] over the client's phase set.

use crate::span::{phase_set, Span};

phase_set! {
    /// The phases of one client-side request, in wall-clock order.
    ClientPhase, CLIENT_PHASE_COUNT {
        /// TCP connect + socket option setup (first request on a connection
        /// only; keep-alive requests never reconnect).
        Connect => "connect",
        /// Request serialization: JSON document, profile/plan binary
        /// encoding, and fingerprinting. A binary profile is fingerprinted
        /// after its frames are written (only the answer is checked
        /// against it), so that part of `encode` runs between `write` and
        /// `await`, concurrently with the server.
        Encode => "encode",
        /// Request frame(s) → socket.
        Write => "write",
        /// Request written (and fingerprinted) → response header frame
        /// fully read. This window covers both network legs plus
        /// everything the server did while the client was not still
        /// fingerprinting; the server's span nests inside it on a merged
        /// timeline.
        Await => "await",
        /// Follow-up response frames (a binary plan payload) → memory.
        Read => "read",
        /// Response JSON parse and binary plan decode.
        Decode => "decode",
        /// The soundness check of a received plan (`Plan::validate`).
        Validate => "validate",
    }
}

/// The client's span of one request.
pub type ClientSpan = Span<ClientPhase>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::IdGen;

    #[test]
    fn client_phase_all_matches_indices_and_names_are_unique() {
        for (i, p) in ClientPhase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: std::collections::BTreeSet<_> =
            ClientPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), CLIENT_PHASE_COUNT);
    }

    #[test]
    fn spans_accumulate_and_distinguish_untouched_from_zero() {
        let ids = IdGen::seeded(3);
        let mut s = ClientSpan::new("Plan");
        s.trace = ids.root();
        s.record(ClientPhase::Write, 0);
        assert_eq!(s.phase_micros(ClientPhase::Write), Some(0));
        assert_eq!(s.phase_micros(ClientPhase::Await), None);
        s.record(ClientPhase::Write, 4);
        assert_eq!(s.phase_micros(ClientPhase::Write), Some(4));
        let entered: Vec<_> = s.entered().collect();
        assert_eq!(entered, vec![(ClientPhase::Write, 4)]);
    }
}
