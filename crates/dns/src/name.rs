//! Domain names.
//!
//! [`DomainName`] stores a fully-qualified name as one immutable shared
//! buffer: the dotted spelling (original case, no trailing dot) behind an
//! `Arc<str>`, or nothing at all for the root. RFC 1035 limits are enforced
//! at construction (labels 1–63 octets without `.` or NUL, total encoded
//! length ≤ 255), so a `.` in the buffer always separates labels. Cloning
//! bumps a reference count, building a name costs one allocation, and the
//! root costs none. Comparison and hashing are ASCII-case-insensitive,
//! matching resolver behaviour; the original spelling is preserved for
//! display.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Errors from domain-name construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty or longer than 63 octets.
    BadLabel(String),
    /// The encoded name would exceed 255 octets.
    TooLong,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::BadLabel(l) => write!(f, "invalid DNS label: {l:?}"),
            NameError::TooLong => write!(f, "domain name exceeds 255 octets"),
        }
    }
}

impl std::error::Error for NameError {}

/// Longest dotted spelling a valid name can have: 255 encoded octets minus
/// the first length byte and the root byte.
const MAX_DOTTED: usize = 253;

/// A fully-qualified domain name.
#[derive(Clone, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct DomainName {
    /// The dotted spelling in its original case; `None` is the root.
    text: Option<Arc<str>>,
}

/// Accumulates validated labels into a stack buffer, so a name is built
/// with exactly one heap allocation (the final `Arc<str>`).
///
/// Validation matches collecting every label first and checking them in
/// order: the first bad label is the error, and only a name whose labels
/// are all valid can fail with [`NameError::TooLong`].
pub(crate) struct NameBuilder {
    buf: [u8; MAX_DOTTED],
    /// Bytes of `buf` in use.
    len: usize,
    /// Encoded length so far, root byte included.
    encoded_len: usize,
    /// The first invalid label seen.
    error: Option<NameError>,
}

impl NameBuilder {
    pub(crate) fn new() -> NameBuilder {
        NameBuilder {
            buf: [0; MAX_DOTTED],
            len: 0,
            encoded_len: 1,
            error: None,
        }
    }

    /// Appends `label` (the next label to the right).
    pub(crate) fn push_label(&mut self, label: &str) {
        if self.error.is_some() {
            return;
        }
        if label.is_empty() || label.len() > 63 || label.bytes().any(|b| b == b'.' || b == 0) {
            self.error = Some(NameError::BadLabel(label.to_string()));
            return;
        }
        self.encoded_len = self.encoded_len.saturating_add(1 + label.len());
        if self.encoded_len > 255 {
            // Too long; keep validating the remaining labels, copy nothing.
            return;
        }
        let sep = usize::from(self.len > 0);
        let start = self.len + sep;
        let end = start + label.len();
        if let Some(dot) = self.buf.get_mut(self.len..start) {
            dot.fill(b'.');
        }
        if let Some(dst) = self.buf.get_mut(start..end) {
            dst.copy_from_slice(label.as_bytes());
        }
        self.len = end;
    }

    pub(crate) fn into_name(self) -> Result<DomainName, NameError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.encoded_len > 255 {
            return Err(NameError::TooLong);
        }
        if self.len == 0 {
            return Ok(DomainName::root());
        }
        // The buffer holds whole `&str` labels joined by '.', so it is
        // UTF-8; the error arm is unreachable and kept only to stay total.
        let text = self
            .buf
            .get(..self.len)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or(NameError::TooLong)?;
        Ok(DomainName {
            text: Some(Arc::from(text)),
        })
    }
}

impl DomainName {
    /// The root name (zero labels). Allocation-free.
    pub fn root() -> Self {
        DomainName { text: None }
    }

    /// Parses a compile-time name literal, panicking on invalid input.
    ///
    /// For embedding well-known names in source (zone apexes, the mask
    /// domains); never call this on runtime input — use [`DomainName::parse`]
    /// and handle the error.
    pub fn literal(s: &str) -> Self {
        // lintkit: allow(no-panic) -- documented literal-only constructor; the single sanctioned panic site for static names
        DomainName::parse(s).expect("invalid DomainName literal")
    }

    /// Builds a name from labels, validating RFC 1035 limits.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut builder = NameBuilder::new();
        for label in labels {
            builder.push_label(label.as_ref());
        }
        builder.into_name()
    }

    /// Parses dotted notation; a single trailing dot is accepted. `"."`
    /// yields the root.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(DomainName::root());
        }
        DomainName::from_labels(trimmed.split('.'))
    }

    /// The dotted spelling in its original case, without a trailing dot;
    /// empty for the root.
    pub(crate) fn dotted(&self) -> &str {
        self.text.as_deref().unwrap_or("")
    }

    /// The labels, leftmost (host) first.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> + '_ {
        self.text.as_deref().into_iter().flat_map(|t| t.split('.'))
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        match &self.text {
            Some(t) => 1 + t.bytes().filter(|b| *b == b'.').count(),
            None => 0,
        }
    }

    /// `true` for the root name.
    pub fn is_root(&self) -> bool {
        self.text.is_none()
    }

    /// Length of the RFC 1035 wire encoding in octets (including root byte):
    /// one length byte per label in place of each `.`, plus the first
    /// length byte and the root byte.
    pub fn encoded_len(&self) -> usize {
        match &self.text {
            Some(t) => t.len() + 2,
            None => 1,
        }
    }

    /// The parent name (one label stripped), or `None` at the root.
    pub fn parent(&self) -> Option<DomainName> {
        let t = self.text.as_deref()?;
        Some(match t.split_once('.') {
            Some((_, rest)) => DomainName {
                text: Some(Arc::from(rest)),
            },
            None => DomainName::root(),
        })
    }

    /// Whether `self` equals `zone` or lies underneath it
    /// (`mask.icloud.com` is within `icloud.com`).
    pub fn is_within(&self, zone: &DomainName) -> bool {
        let Some(apex) = zone.text.as_deref() else {
            return true;
        };
        let name = self.dotted().as_bytes();
        let Some(cut) = name.len().checked_sub(apex.len()) else {
            return false;
        };
        let (head, tail) = name.split_at(cut);
        tail.eq_ignore_ascii_case(apex.as_bytes()) && (head.is_empty() || head.ends_with(b"."))
    }

    /// Prepends a label, e.g. `"mask"` + `icloud.com` → `mask.icloud.com`.
    pub fn prepend(&self, label: &str) -> Result<DomainName, NameError> {
        DomainName::from_labels(std::iter::once(label).chain(self.labels()))
    }

    /// Lower-cased dotted representation without trailing dot (root → `"."`).
    pub fn to_ascii_lower(&self) -> String {
        match &self.text {
            Some(t) => t.to_ascii_lowercase(),
            None => ".".to_string(),
        }
    }

    /// The bytes [`DomainName::to_ascii_lower`] renders, without building
    /// a `String`.
    fn dotted_lower_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        let text = self.text.as_deref().unwrap_or(".");
        text.bytes().map(|b| b.to_ascii_lowercase())
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        self.dotted().eq_ignore_ascii_case(other.dotted())
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    /// Feeds each label's lower-cased bytes followed by a 0 byte (nothing
    /// for the root), so names equal up to ASCII case hash equal.
    fn hash<H: Hasher>(&self, state: &mut H) {
        if let Some(t) = &self.text {
            for b in t.bytes() {
                state.write_u8(if b == b'.' { 0 } else { b.to_ascii_lowercase() });
            }
            state.write_u8(0);
        }
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    /// The byte order of the lower-cased dotted rendering — exactly what
    /// comparing [`DomainName::to_ascii_lower`] strings produced — computed
    /// lazily so trie lookups on the hot path never allocate.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dotted_lower_bytes().cmp(other.dotted_lower_bytes())
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text.as_deref().unwrap_or("."))
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for DomainName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl TryFrom<String> for DomainName {
    type Error = NameError;
    fn try_from(s: String) -> Result<Self, NameError> {
        DomainName::parse(&s)
    }
}

impl From<DomainName> for String {
    fn from(n: DomainName) -> String {
        n.to_string()
    }
}

/// The iCloud Private Relay QUIC ingress domain, `mask.icloud.com`.
pub fn mask_domain() -> DomainName {
    DomainName::literal("mask.icloud.com")
}

/// The TCP-fallback ingress domain, `mask-h2.icloud.com`.
pub fn mask_h2_domain() -> DomainName {
    DomainName::literal("mask-h2.icloud.com")
}

/// The resolver-identity domain modelled after `whoami.akamai.net`.
pub fn whoami_domain() -> DomainName {
    DomainName::literal("whoami.akamai.net")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn parse_basic() {
        let n = DomainName::parse("mask.icloud.com").unwrap();
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.labels().next(), Some("mask"));
        assert_eq!(n.to_string(), "mask.icloud.com");
    }

    #[test]
    fn trailing_dot_and_root() {
        assert_eq!(
            DomainName::parse("icloud.com.").unwrap(),
            DomainName::parse("icloud.com").unwrap()
        );
        let root = DomainName::parse(".").unwrap();
        assert!(root.is_root());
        assert_eq!(root.to_string(), ".");
        assert_eq!(DomainName::parse("").unwrap(), DomainName::root());
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(DomainName::parse("a..b").is_err());
        let long = "x".repeat(64);
        assert!(DomainName::parse(&format!("{long}.com")).is_err());
        let ok = "x".repeat(63);
        assert!(DomainName::parse(&format!("{ok}.com")).is_ok());
    }

    #[test]
    fn rejects_overlong_names() {
        // 4 × 63-octet labels encode past 255 octets.
        let l = "y".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}");
        assert!(DomainName::parse(&s).is_err());
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        let a = DomainName::parse("MASK.iCloud.COM").unwrap();
        let b = DomainName::parse("mask.icloud.com").unwrap();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        // Display preserves original case.
        assert_eq!(a.to_string(), "MASK.iCloud.COM");
    }

    #[test]
    fn is_within_zone() {
        let zone = DomainName::parse("icloud.com").unwrap();
        assert!(DomainName::parse("mask.icloud.com")
            .unwrap()
            .is_within(&zone));
        assert!(DomainName::parse("ICLOUD.COM").unwrap().is_within(&zone));
        assert!(!DomainName::parse("icloud.com.evil.org")
            .unwrap()
            .is_within(&zone));
        assert!(!DomainName::parse("com").unwrap().is_within(&zone));
        assert!(DomainName::parse("a.b.icloud.com")
            .unwrap()
            .is_within(&zone));
        // Everything is within the root.
        assert!(zone.is_within(&DomainName::root()));
    }

    #[test]
    fn parent_and_prepend() {
        let n = DomainName::parse("mask.icloud.com").unwrap();
        assert_eq!(n.parent().unwrap().to_string(), "icloud.com");
        let back = n.parent().unwrap().prepend("mask-h2").unwrap();
        assert_eq!(back.to_string(), "mask-h2.icloud.com");
        assert!(DomainName::root().parent().is_none());
    }

    #[test]
    fn encoded_len_matches_rfc() {
        // "mask.icloud.com" = 1+4 + 1+6 + 1+3 + 1 = 17
        assert_eq!(
            DomainName::parse("mask.icloud.com").unwrap().encoded_len(),
            17
        );
        assert_eq!(DomainName::root().encoded_len(), 1);
    }

    #[test]
    fn well_known_domains() {
        assert_eq!(mask_domain().to_string(), "mask.icloud.com");
        assert_eq!(mask_h2_domain().to_string(), "mask-h2.icloud.com");
        assert_eq!(whoami_domain().to_string(), "whoami.akamai.net");
        assert!(mask_domain().is_within(&DomainName::parse("icloud.com").unwrap()));
    }

    #[test]
    fn serde_round_trip() {
        let n = DomainName::parse("mask.icloud.com").unwrap();
        let j = serde_json::to_string(&n).unwrap();
        assert_eq!(j, "\"mask.icloud.com\"");
        let back: DomainName = serde_json::from_str(&j).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn ordering_is_case_insensitive() {
        let mut v = [
            DomainName::parse("b.example").unwrap(),
            DomainName::parse("A.example").unwrap(),
        ];
        v.sort();
        assert_eq!(v[0].to_string(), "A.example");
    }
}
