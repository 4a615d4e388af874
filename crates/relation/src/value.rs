//! Typed attribute values.
//!
//! Range selection needs attribute domains that map onto the `u32` value
//! space the LSH layer hashes (ages, ids, dates-as-day-numbers). Strings
//! participate in equality predicates and join keys only — matching the
//! paper's queries (`diagnosis = "Glaucoma"` is an equality select; the
//! range selects are on integers and dates).

use std::fmt;

/// The type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Unsigned 32-bit integer (ids, ages, counts).
    Int,
    /// UTF-8 string (names, diagnoses).
    Str,
    /// A calendar date, stored as days since 1900-01-01 — totally ordered
    /// and range-hashable like any integer.
    Date,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "INT"),
            ValueType::Str => write!(f, "STRING"),
            ValueType::Date => write!(f, "DATE"),
        }
    }
}

/// One attribute value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Integer value.
    Int(u32),
    /// String value.
    Str(String),
    /// Date as days since 1900-01-01.
    Date(u32),
}

impl Value {
    /// The type of this value.
    pub(crate) fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Str(_) => ValueType::Str,
            Value::Date(_) => ValueType::Date,
        }
    }

    /// The orderable `u32` key of this value, if it has one (integers and
    /// dates). This is what the LSH layer hashes.
    pub fn as_ordinal(&self) -> Option<u32> {
        match self {
            Value::Int(v) | Value::Date(v) => Some(*v),
            Value::Str(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => {
                let (y, m, dd) = from_days_since_1900(*d);
                write!(f, "{y:04}-{m:02}-{dd:02}")
            }
        }
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

const DAYS_IN_MONTH: [u32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: u32) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

pub(crate) fn days_in_month(year: u32, month: u32) -> u32 {
    if month == 2 && is_leap(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

/// Days elapsed since 1900-01-01 (which is day 0).
///
/// # Panics
/// Panics on out-of-range month/day or a year before 1900.
pub fn days_since_1900(year: u32, month: u32, day: u32) -> u32 {
    assert!(year >= 1900, "dates before 1900 are unsupported");
    assert!((1..=12).contains(&month), "invalid month {month}");
    assert!(
        day >= 1 && day <= days_in_month(year, month),
        "invalid day {day} for {year}-{month:02}"
    );
    let mut days = 0u32;
    for y in 1900..year {
        days += if is_leap(y) { 366 } else { 365 };
    }
    for m in 1..month {
        days += days_in_month(year, m);
    }
    days + (day - 1)
}

/// Inverse of [`days_since_1900`].
pub(crate) fn from_days_since_1900(mut days: u32) -> (u32, u32, u32) {
    let mut year = 1900;
    loop {
        let in_year = if is_leap(year) { 366 } else { 365 };
        if days < in_year {
            break;
        }
        days -= in_year;
        year += 1;
    }
    let mut month = 1;
    loop {
        let in_month = days_in_month(year, month);
        if days < in_month {
            break;
        }
        days -= in_month;
        month += 1;
    }
    (year, month, days + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn types_and_ordinals() {
        assert_eq!(Value::Int(5).value_type(), ValueType::Int);
        assert_eq!(Value::Int(5).as_ordinal(), Some(5));
        assert_eq!(Value::from("x").value_type(), ValueType::Str);
        assert_eq!(Value::from("x").as_ordinal(), None);
        assert_eq!(
            Value::Date(days_since_1900(1900, 1, 1)).as_ordinal(),
            Some(0)
        );
    }

    #[test]
    fn date_epoch() {
        assert_eq!(days_since_1900(1900, 1, 1), 0);
        assert_eq!(days_since_1900(1900, 1, 2), 1);
        assert_eq!(days_since_1900(1900, 2, 1), 31);
        assert_eq!(days_since_1900(1901, 1, 1), 365); // 1900 is not a leap year
    }

    #[test]
    fn leap_year_rules() {
        assert!(!is_leap(1900)); // divisible by 100 but not 400
        assert!(is_leap(2000));
        assert!(is_leap(2004));
        assert!(!is_leap(2001));
        assert_eq!(days_in_month(2000, 2), 29);
        assert_eq!(days_in_month(1900, 2), 28);
    }

    #[test]
    fn paper_query_dates_are_ordered() {
        // 01-01-2000 < date < 12-31-2002 from the paper's example query.
        let lo = days_since_1900(2000, 1, 1);
        let hi = days_since_1900(2002, 12, 31);
        assert!(lo < hi);
        // Interval width: 2000 is leap (366) + 2001 (365) + 2002 through
        // Dec 31 (364 more days after Jan 1 2002... just check a known total)
        assert_eq!(hi - lo, 366 + 365 + 364);
    }

    #[test]
    #[should_panic(expected = "invalid day")]
    fn invalid_date_rejected() {
        days_since_1900(2001, 2, 29);
    }

    #[test]
    #[should_panic(expected = "before 1900")]
    fn pre_epoch_rejected() {
        days_since_1900(1899, 12, 31);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Value::Int(42)), "42");
        assert_eq!(format!("{}", Value::from("abc")), "abc");
        assert_eq!(
            format!("{}", Value::Date(days_since_1900(2002, 12, 31))),
            "2002-12-31"
        );
    }

    #[test]
    fn value_ordering_within_type() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::from("a") < Value::from("b"));
        assert!(
            Value::Date(days_since_1900(2000, 1, 1)) < Value::Date(days_since_1900(2000, 1, 2))
        );
    }

    proptest! {
        #[test]
        fn date_roundtrip(days in 0u32..80_000) {
            let (y, m, d) = from_days_since_1900(days);
            prop_assert_eq!(days_since_1900(y, m, d), days);
        }

        #[test]
        fn date_encoding_is_monotone(a in 0u32..80_000, b in 0u32..80_000) {
            let (ya, ma, da) = from_days_since_1900(a);
            let (yb, mb, db) = from_days_since_1900(b);
            prop_assert_eq!(a.cmp(&b), (ya, ma, da).cmp(&(yb, mb, db)));
        }
    }
}
