//! Closed label sets: the fixed label values of metric families and
//! event fields, declared once per enum with [`label_enum!`].

/// A closed set of label values: one per variant of a fieldless enum,
/// whose discriminant is its position in [`LabelValue::LABELS`] — so a
/// per-label metric array is indexed by the enum directly.
pub trait LabelValue: Copy {
    /// Every label value, in declaration (discriminant) order.
    const LABELS: &'static [&'static str];
    /// Position in [`LabelValue::LABELS`].
    fn index(self) -> usize;
}

/// Declare a label enum: its variants in order, each with its label
/// value. Generates the enum (`Debug, Clone, Copy, PartialEq, Eq`; pass
/// more derives as attributes), `ALL`, `index`, `label` and the
/// [`LabelValue`] impl.
///
/// ```
/// chemcost_obs::label_enum! {
///     /// Which way the light is.
///     pub enum Light {
///         /// Stop.
///         Red => "red",
///         /// Go.
///         Green => "green",
///     }
/// }
/// assert_eq!(Light::ALL, [Light::Red, Light::Green]);
/// assert_eq!(Light::Green.label(), "green");
/// assert_eq!(Light::Green.index(), 1);
/// ```
#[macro_export]
macro_rules! label_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every value, in declaration order.
            pub const ALL: [$name; [$($label),+].len()] = [$($name::$variant),+];

            /// Position in `ALL`.
            pub const fn index(self) -> usize {
                self as usize
            }

            /// The label value.
            pub const fn label(self) -> &'static str {
                <$name as $crate::LabelValue>::LABELS[self as usize]
            }
        }

        impl $crate::LabelValue for $name {
            const LABELS: &'static [&'static str] = &[$($label),+];

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}
