//! The network functions the paper evaluates (§5): simple forwarding and
//! the stateful Router → NAPT → LB chain.

mod lb;
mod mac_swap;
mod napt;
mod router;

pub(crate) use lb::LoadBalancer;
pub(crate) use mac_swap::MacSwap;
pub use napt::Napt;
pub use router::Router;
