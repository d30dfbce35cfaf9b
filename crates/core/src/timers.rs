//! The timer registry: every timer a peer sets goes through one
//! [`Timers`], which knows what each is for and when it is due. The
//! simulator silently drops a timer that comes due while its peer is
//! offline, so a timer leaves the registry only when it fires or is
//! cancelled: one dropped is still here for [`Timers::rearm`].

use crate::messages::Ctx;
use crate::peer::Timer;
use axml_p2p::TimerId;

/// One timer of the registry.
#[derive(Debug)]
struct Armed {
    kind: Timer,
    /// When it fires — or fired unseen, if the peer was offline then.
    due: u64,
    id: TimerId,
}

/// Every timer a peer has set and neither seen fire nor cancelled, by tag:
/// its slot plus one (tag 0 is the harness's submit). Vacant slots are
/// reused, so the table allocates only to grow to a new high-water mark.
#[derive(Debug, Default)]
pub(crate) struct Timers {
    slots: Vec<Option<Armed>>,
}

impl Timers {
    /// Sets a timer for `kind` that fires `delay` from now; returns its tag.
    pub(crate) fn set(&mut self, ctx: &mut Ctx<'_>, delay: u64, kind: Timer) -> u64 {
        let slot = self.slots.iter().position(Option::is_none).unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let tag = slot as u64 + 1;
        let id = ctx.set_timer(delay, tag);
        self.slots[slot] = Some(Armed { kind, due: ctx.now().saturating_add(delay), id });
        tag
    }

    /// Timer `tag` fired: what it was for, now unregistered. `None` for a
    /// tag that is not registered (the harness's tag 0).
    pub(crate) fn fired(&mut self, tag: u64) -> Option<Timer> {
        let slot = usize::try_from(tag.checked_sub(1)?).ok()?;
        self.slots.get_mut(slot)?.take().map(|armed| armed.kind)
    }

    /// Withdraws timer `tag`: the one way a pending timer is given up.
    pub(crate) fn cancel(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if let Some(armed) = self.slots[(tag - 1) as usize].take() {
            ctx.cancel_timer(armed.id);
        }
    }

    /// The peer is back online, and the simulator has dropped every timer
    /// that came due meanwhile. `plan` sees each timer's kind and due time
    /// and returns `Some((key, delay))` to set it anew, `delay` from now and
    /// under its old tag, or `None` to leave it as it is. The timers are
    /// set in ascending `key` order: the order timers are set in breaks
    /// ties between those due together.
    pub(crate) fn rearm<O: Ord>(&mut self, ctx: &mut Ctx<'_>, mut plan: impl FnMut(&Timer, u64) -> Option<(O, u64)>) {
        let mut order: Vec<(O, u64, usize)> = Vec::new();
        for (slot, armed) in self.slots.iter().enumerate() {
            if let Some((key, delay)) = armed.as_ref().and_then(|a| plan(&a.kind, a.due)) {
                order.push((key, delay, slot));
            }
        }
        order.sort_by(|a, b| a.0.cmp(&b.0));
        for (_, delay, slot) in order {
            let armed = self.slots[slot].as_mut().expect("planned above");
            ctx.cancel_timer(armed.id);
            armed.id = ctx.set_timer(delay, slot as u64 + 1);
            armed.due = ctx.now().saturating_add(delay);
        }
    }

    /// The registered timers' kinds, in tag order.
    #[cfg(test)]
    pub(crate) fn kinds(&self) -> impl Iterator<Item = &Timer> {
        self.slots.iter().flatten().map(|armed| &armed.kind)
    }
}
