//! Thread attributes — the defining feature of the DO/CT passive-object
//! paradigm (paper §3.1 "Thread Contexts").
//!
//! "Thread attributes contain information such as the connections to the
//! I/O channel that the thread is using, creator of the thread,
//! consistency labels for the thread, etc. Event information is a natural
//! addition to the attributes." Attributes travel with the logical thread
//! across every object and machine boundary it visits, and are inherited
//! by threads it spawns (§6.3).
//!
//! The kernel does not know what the event facility stores here; it
//! provides an extension bag ([`Extension`]) that higher layers (the
//! `doct-events` crate) populate — e.g. with the per-thread handler
//! registry and per-thread-memory procedures.

use crate::{ThreadGroupId, ThreadId, Value};
use doct_net::NodeId;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A typed extension slotted into [`ThreadAttributes`].
///
/// `clone_ext` is called when attributes are *inherited* by a spawned
/// thread, letting the owner decide deep-vs-shallow copy semantics (the
/// event facility deep-copies its handler registry so a child's
/// `attach_handler` does not affect the parent).
pub trait Extension: Any + Send + Sync {
    /// Clone for inheritance by a spawned thread.
    fn clone_ext(&self) -> Arc<dyn Extension>;
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
}

/// The attribute record that travels with a logical thread.
pub struct ThreadAttributes {
    /// The thread's identity (immutable).
    pub thread: ThreadId,
    /// Node that created the thread.
    pub creator: NodeId,
    /// Thread group membership, if any (§5.3).
    pub group: Option<ThreadGroupId>,
    /// Simulated I/O channel (e.g. the controlling terminal's name); output
    /// from any object the thread visits goes here (§3.1's `foo`/`bar`
    /// example).
    pub io_channel: Option<String>,
    /// Consistency label ([Chen 89] in the paper).
    pub consistency_label: Option<String>,
    /// Small per-thread key/value memory (the serializable slice of the
    /// paper's per-thread memory).
    pub values: BTreeMap<String, Value>,
    /// Typed extension bag for higher layers (event registries, etc.).
    extensions: BTreeMap<&'static str, Arc<dyn Extension>>,
}

impl fmt::Debug for ThreadAttributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadAttributes")
            .field("thread", &self.thread)
            .field("creator", &self.creator)
            .field("group", &self.group)
            .field("io_channel", &self.io_channel)
            .field("extensions", &self.extensions.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ThreadAttributes {
    /// Fresh attributes for a newly created thread.
    pub fn new(thread: ThreadId, creator: NodeId) -> Self {
        ThreadAttributes {
            thread,
            creator,
            group: None,
            io_channel: None,
            consistency_label: None,
            values: BTreeMap::new(),
            extensions: BTreeMap::new(),
        }
    }

    /// Install or replace a typed extension under `key`.
    pub fn set_extension(&mut self, key: &'static str, ext: Arc<dyn Extension>) {
        self.extensions.insert(key, ext);
    }

    /// Fetch the extension stored under `key`, downcast to `T`.
    pub fn extension<T: Extension>(&self, key: &str) -> Option<Arc<T>> {
        let ext = self.extensions.get(key)?;
        // Arc<dyn Extension> -> Arc<T> via double indirection through Any.
        if ext.as_any().is::<T>() {
            let raw = Arc::clone(ext);
            // Safety-free downcast: re-wrap through Any using the blanket
            // Arc::downcast on dyn Any + Send + Sync.
            let any: Arc<dyn Any + Send + Sync> = raw.into_any_arc();
            any.downcast::<T>().ok()
        } else {
            None
        }
    }

    /// Clone these attributes for inheritance by a spawned thread: the
    /// child gets the parent's group, I/O channel, key/value memory, and a
    /// `clone_ext` copy of every extension — "Any subsequent thread
    /// spawned from the root thread inherits the thread attributes
    /// (including the event registry and the handler information)" (§6.3).
    pub fn inherit_for(&self, child: ThreadId, creator: NodeId) -> ThreadAttributes {
        ThreadAttributes {
            thread: child,
            creator,
            group: self.group,
            io_channel: self.io_channel.clone(),
            consistency_label: self.consistency_label.clone(),
            values: self.values.clone(),
            extensions: self
                .extensions
                .iter()
                .map(|(k, v)| (*k, v.clone_ext()))
                .collect(),
        }
    }
}

/// Same-thread shipping (invocation crossing a node): extensions move by
/// shared reference — it is still the *same* logical thread, so mutation
/// through interior mutability stays visible when the thread returns.
impl Clone for ThreadAttributes {
    fn clone(&self) -> Self {
        ThreadAttributes {
            thread: self.thread,
            creator: self.creator,
            group: self.group,
            io_channel: self.io_channel.clone(),
            consistency_label: self.consistency_label.clone(),
            values: self.values.clone(),
            extensions: self.extensions.clone(),
        }
    }
}

/// Helper trait to turn `Arc<dyn Extension>` into `Arc<dyn Any + Send +
/// Sync>` (stable Rust lacks trait upcasting on older editions; this keeps
/// the conversion explicit).
trait IntoAnyArc {
    fn into_any_arc(self: Arc<Self>) -> Arc<dyn Any + Send + Sync>;
}

impl<T: Extension> IntoAnyArc for T {
    fn into_any_arc(self: Arc<Self>) -> Arc<dyn Any + Send + Sync> {
        self
    }
}

impl IntoAnyArc for dyn Extension {
    fn into_any_arc(self: Arc<Self>) -> Arc<dyn Any + Send + Sync> {
        // dyn Extension: Any + Send + Sync by supertrait, so upcast
        // coercion applies on modern rustc.
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[derive(Debug)]
    struct Counter {
        hits: AtomicU32,
        generation: u32,
    }

    impl Extension for Counter {
        fn clone_ext(&self) -> Arc<dyn Extension> {
            Arc::new(Counter {
                hits: AtomicU32::new(self.hits.load(Ordering::Relaxed)),
                generation: self.generation + 1,
            })
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn attrs() -> ThreadAttributes {
        ThreadAttributes::new(ThreadId::new(NodeId(0), 1), NodeId(0))
    }

    #[test]
    fn extension_round_trip() {
        let mut a = attrs();
        a.set_extension(
            "counter",
            Arc::new(Counter {
                hits: AtomicU32::new(3),
                generation: 0,
            }),
        );
        let c: Arc<Counter> = a.extension("counter").unwrap();
        assert_eq!(c.hits.load(Ordering::Relaxed), 3);
        assert!(a.extension::<Counter>("missing").is_none());
    }

    #[test]
    fn same_thread_clone_shares_extensions() {
        let mut a = attrs();
        a.set_extension(
            "counter",
            Arc::new(Counter {
                hits: AtomicU32::new(0),
                generation: 0,
            }),
        );
        let b = a.clone();
        let ca: Arc<Counter> = a.extension("counter").unwrap();
        ca.hits.fetch_add(1, Ordering::Relaxed);
        let cb: Arc<Counter> = b.extension("counter").unwrap();
        assert_eq!(
            cb.hits.load(Ordering::Relaxed),
            1,
            "same logical thread sees mutations across hops"
        );
    }

    #[test]
    fn inheritance_deep_copies_extensions() {
        let mut a = attrs();
        a.group = Some(ThreadGroupId::new(NodeId(0), 9));
        a.io_channel = Some("tty0".into());
        a.set_extension(
            "counter",
            Arc::new(Counter {
                hits: AtomicU32::new(5),
                generation: 0,
            }),
        );
        let child = a.inherit_for(ThreadId::new(NodeId(1), 7), NodeId(1));
        assert_eq!(child.thread, ThreadId::new(NodeId(1), 7));
        assert_eq!(child.group, a.group, "group inherited");
        assert_eq!(child.io_channel, a.io_channel, "I/O channel inherited");
        let cc: Arc<Counter> = child.extension("counter").unwrap();
        assert_eq!(cc.generation, 1, "clone_ext ran");
        cc.hits.fetch_add(10, Ordering::Relaxed);
        let ca: Arc<Counter> = a.extension("counter").unwrap();
        assert_eq!(
            ca.hits.load(Ordering::Relaxed),
            5,
            "child mutations invisible to parent"
        );
    }

    #[test]
    fn debug_lists_extension_keys() {
        let mut a = attrs();
        a.set_extension(
            "counter",
            Arc::new(Counter {
                hits: AtomicU32::new(0),
                generation: 0,
            }),
        );
        let text = format!("{a:?}");
        assert!(text.contains("counter"), "{text}");
    }
}
