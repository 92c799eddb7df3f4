use sa_geometry::{Point, Rect};
use std::fmt;

/// Identifies an installed spatial alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AlarmId(pub u64);

/// Identifies a mobile subscriber. In the evaluation, subscriber `k` is
/// vehicle `k` of the mobility trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriberId(pub u32);

impl fmt::Display for AlarmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alarm#{}", self.0)
    }
}

impl fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user#{}", self.0)
    }
}

/// The future location reference of an alarm (paper §1).
///
/// Class (1) of the paper's taxonomy uses a static target with a moving
/// subscriber; classes (2) and (3) anchor the alarm region on another moving
/// entity, requiring server-coordinated position updates for the target
/// itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlarmTarget {
    /// A fixed location of interest (e.g., "the dry-clean store").
    Static(Point),
    /// Another mobile subscriber; the alarm region follows their position.
    Moving(SubscriberId),
}

/// Publish–subscribe scope of an alarm (paper §1).
#[derive(Debug, Clone, PartialEq)]
pub enum AlarmScope {
    /// Installed and used exclusively by the publisher.
    Private {
        /// The publisher, who is also the only subscriber.
        owner: SubscriberId,
    },
    /// Installed by the publisher with an explicit subscriber list (the
    /// publisher is typically one of the subscribers).
    Shared {
        /// The publisher.
        owner: SubscriberId,
        /// Authorized subscribers (sorted, deduplicated).
        subscribers: Vec<SubscriberId>,
    },
    /// Subscribed to by all mobile users.
    Public {
        /// The publisher.
        owner: SubscriberId,
    },
}

impl AlarmScope {
    /// Creates a shared scope, normalizing (sorting + deduplicating) the
    /// subscriber list and ensuring the owner subscribes too.
    pub fn shared(owner: SubscriberId, mut subscribers: Vec<SubscriberId>) -> AlarmScope {
        subscribers.push(owner);
        subscribers.sort_unstable();
        subscribers.dedup();
        AlarmScope::Shared { owner, subscribers }
    }

    /// The publisher of the alarm.
    pub fn owner(&self) -> SubscriberId {
        match self {
            AlarmScope::Private { owner }
            | AlarmScope::Shared { owner, .. }
            | AlarmScope::Public { owner } => *owner,
        }
    }

    /// True when `user` subscribes to an alarm with this scope.
    pub fn includes(&self, user: SubscriberId) -> bool {
        match self {
            AlarmScope::Private { owner } => *owner == user,
            AlarmScope::Shared { subscribers, .. } => subscribers.binary_search(&user).is_ok(),
            AlarmScope::Public { .. } => true,
        }
    }
}

/// An installed spatial alarm: a rectangular spatial region around the
/// alarm target, an owner and a subscriber scope. The alarm *triggers* for
/// a subscriber when that subscriber enters the region; triggering is
/// one-shot per (alarm, subscriber) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialAlarm {
    id: AlarmId,
    region: Rect,
    target: AlarmTarget,
    scope: AlarmScope,
}

impl SpatialAlarm {
    /// Creates an alarm whose region is `region`, anchored on `target`.
    pub fn new(id: AlarmId, region: Rect, target: AlarmTarget, scope: AlarmScope) -> SpatialAlarm {
        SpatialAlarm { id, region, target, scope }
    }

    /// Convenience constructor: a square region of half-extent `radius`
    /// centered on a static target — the "alert me when I am within two
    /// miles of X" shape.
    ///
    /// # Errors
    ///
    /// Propagates [`sa_geometry::GeometryError`] for a negative or
    /// non-finite `radius`.
    pub fn around_static_target(
        id: AlarmId,
        target: Point,
        radius: f64,
        scope: AlarmScope,
    ) -> Result<SpatialAlarm, sa_geometry::GeometryError> {
        Ok(SpatialAlarm {
            id,
            region: Rect::centered_square(target, radius)?,
            target: AlarmTarget::Static(target),
            scope,
        })
    }

    /// The alarm's identifier.
    pub fn id(&self) -> AlarmId {
        self.id
    }

    /// The spatial region whose entry triggers the alarm.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// The alarm target.
    pub fn target(&self) -> AlarmTarget {
        self.target
    }

    /// The publish–subscribe scope.
    pub fn scope(&self) -> &AlarmScope {
        &self.scope
    }

    /// True when the alarm is public.
    pub fn is_public(&self) -> bool {
        matches!(self.scope, AlarmScope::Public { .. })
    }

    /// True when `user` subscribes to this alarm.
    pub fn is_relevant_to(&self, user: SubscriberId) -> bool {
        self.scope.includes(user)
    }

    /// True when a subscriber at `pos` satisfies the alarm's spatial
    /// condition (closed-region containment).
    pub fn contains(&self, pos: Point) -> bool {
        self.region.contains_point(pos)
    }

    /// True when the alarm *triggers* for a subscriber at `pos`.
    ///
    /// Triggering uses strict interior containment: an alarm region is an
    /// open set, so grazing its boundary does not fire it. This is the
    /// semantics the whole processing pipeline shares — it is what makes a
    /// maximal safe region (which necessarily abuts alarm-region
    /// boundaries) sound.
    pub fn triggers_at(&self, pos: Point) -> bool {
        self.region.contains_point_strict(pos)
    }

    /// Re-anchors the region on a moved target position, preserving the
    /// region's extent (classes (2)/(3) of the taxonomy: moving targets).
    pub fn with_target_position(&self, new_target_pos: Point) -> SpatialAlarm {
        let half_w = self.region.width() / 2.0;
        let half_h = self.region.height() / 2.0;
        let region = Rect::new(
            new_target_pos.x - half_w,
            new_target_pos.y - half_h,
            new_target_pos.x + half_w,
            new_target_pos.y + half_h,
        )
        .expect("translated region stays valid");
        SpatialAlarm { id: self.id, region, target: self.target, scope: self.scope.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(n: u32) -> SubscriberId {
        SubscriberId(n)
    }

    #[test]
    fn private_alarm_is_relevant_only_to_owner() {
        let a = SpatialAlarm::around_static_target(
            AlarmId(1),
            Point::new(0.0, 0.0),
            100.0,
            AlarmScope::Private { owner: user(5) },
        )
        .unwrap();
        assert!(a.is_relevant_to(user(5)));
        assert!(!a.is_relevant_to(user(6)));
        assert!(!a.is_public());
    }

    #[test]
    fn shared_alarm_includes_owner_and_list() {
        let scope = AlarmScope::shared(user(1), vec![user(3), user(2), user(3)]);
        let a = SpatialAlarm::around_static_target(AlarmId(2), Point::new(0.0, 0.0), 50.0, scope)
            .unwrap();
        assert!(a.is_relevant_to(user(1))); // owner auto-subscribes
        assert!(a.is_relevant_to(user(2)));
        assert!(a.is_relevant_to(user(3)));
        assert!(!a.is_relevant_to(user(4)));
        if let AlarmScope::Shared { subscribers, .. } = a.scope() {
            assert_eq!(subscribers.len(), 3, "list is deduplicated");
        } else {
            panic!("expected shared scope");
        }
    }

    #[test]
    fn public_alarm_is_relevant_to_everyone() {
        let a = SpatialAlarm::around_static_target(
            AlarmId(3),
            Point::new(0.0, 0.0),
            10.0,
            AlarmScope::Public { owner: user(0) },
        )
        .unwrap();
        assert!(a.is_public());
        for u in 0..100 {
            assert!(a.is_relevant_to(user(u)));
        }
    }

    #[test]
    fn region_containment_is_closed() {
        let a = SpatialAlarm::around_static_target(
            AlarmId(4),
            Point::new(100.0, 100.0),
            25.0,
            AlarmScope::Public { owner: user(0) },
        )
        .unwrap();
        assert!(a.contains(Point::new(100.0, 100.0)));
        assert!(a.contains(Point::new(125.0, 125.0)));
        assert!(!a.contains(Point::new(126.0, 100.0)));
    }

    #[test]
    fn moving_target_reanchoring_preserves_extent() {
        let a = SpatialAlarm::new(
            AlarmId(5),
            Rect::new(0.0, 0.0, 200.0, 100.0).unwrap(),
            AlarmTarget::Moving(user(9)),
            AlarmScope::Private { owner: user(9) },
        );
        let moved = a.with_target_position(Point::new(1_000.0, 1_000.0));
        assert_eq!(moved.region().width(), 200.0);
        assert_eq!(moved.region().height(), 100.0);
        assert_eq!(moved.region().center(), Point::new(1_000.0, 1_000.0));
        assert_eq!(moved.id(), a.id());
    }

    #[test]
    fn scope_owner_accessor() {
        assert_eq!(AlarmScope::Private { owner: user(7) }.owner(), user(7));
        assert_eq!(AlarmScope::Public { owner: user(8) }.owner(), user(8));
        assert_eq!(AlarmScope::shared(user(9), vec![]).owner(), user(9));
    }
}

#[cfg(test)]
mod trigger_tests {
    use super::*;

    #[test]
    fn triggering_is_strict_while_contains_is_closed() {
        let a = SpatialAlarm::around_static_target(
            AlarmId(0),
            Point::new(100.0, 100.0),
            50.0,
            AlarmScope::Public { owner: SubscriberId(0) },
        )
        .unwrap();
        let boundary = Point::new(150.0, 100.0);
        let inside = Point::new(149.9, 100.0);
        assert!(a.contains(boundary));
        assert!(!a.triggers_at(boundary));
        assert!(a.triggers_at(inside));
    }
}
