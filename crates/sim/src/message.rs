//! Wire-size accounting for every message class the strategies exchange.
//!
//! The evaluation charges *uplink* traffic by message count (Figures 4(a),
//! 5(a), 6(a)) and *downlink* traffic by payload bits (Figure 6(b)), so the
//! constants here fix the units of those plots.

/// Payload sizes in bits.
pub mod payload {
    /// Client → server location update: subscriber id (32) + position
    /// (2 × 32) + heading and speed packed (32).
    pub const LOCATION_UPDATE_BITS: usize = 128;

    /// Client → server alarm-trigger notification (OPT evaluates alarms
    /// client-side): subscriber id + alarm id.
    pub const TRIGGER_NOTIFY_BITS: usize = 64;

    /// Server → client trigger delivery: alarm id + flags.
    pub const TRIGGER_DELIVERY_BITS: usize = 64;

    /// Header on any server → client safe-region or alarm-set payload:
    /// message type + sequence (32) and grid-cell id (32).
    pub const REGION_HEADER_BITS: usize = 64;

    /// One alarm pushed to an OPT client: alarm id (32) + rectangle
    /// (4 × 32).
    pub const ALARM_PUSH_BITS: usize = 160;

    /// Server → client safe-period grant: period in ms (32).
    pub const SAFE_PERIOD_BITS: usize = 32;
}

#[cfg(test)]
mod tests {
    use super::payload::*;

    #[test]
    fn uplink_messages_are_small() {
        // Uplink messages must be payload-light; the evaluation counts them
        // rather than weighing them.
        const { assert!(LOCATION_UPDATE_BITS <= 256) };
        const { assert!(TRIGGER_NOTIFY_BITS <= LOCATION_UPDATE_BITS) };
    }

    #[test]
    fn downlink_sizes_reflect_content() {
        // An OPT alarm push carries a full rectangle and dwarfs a
        // safe-period grant.
        const { assert!(ALARM_PUSH_BITS > SAFE_PERIOD_BITS) };
        assert_eq!(ALARM_PUSH_BITS, 32 + 4 * 32);
    }
}
