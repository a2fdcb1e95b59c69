pub mod apps;
pub mod get_amo;
pub mod kv_txn;
pub mod put;
pub mod stream;
pub mod sync_pair;

/// Run `$body` with `$W` bound to the workload type called `$name`.
#[macro_export]
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {
        match $name {
            "put_rate" => {
                type $W = $crate::workloads::put::Put<false>;
                $body
            }
            "put_duplex" => {
                type $W = $crate::workloads::put::Put<true>;
                $body
            }
            "get_amo" => {
                type $W = $crate::workloads::get_amo::GetAmo;
                $body
            }
            "sync_pair" => {
                type $W = $crate::workloads::sync_pair::SyncPair;
                $body
            }
            "stream" => {
                type $W = $crate::workloads::stream::Stream;
                $body
            }
            "kv_txn" => {
                type $W = $crate::workloads::kv_txn::KvTxn;
                $body
            }
            "apps" => {
                type $W = $crate::workloads::apps::Apps;
                $body
            }
            other => panic!("unknown workload {other:?}"),
        }
    };
}
